import json

from momentsynth.cli import main
from momentsynth.documents import (
    measure_from_doc,
    measure_to_doc,
    problem_to_doc,
    read_doc,
    write_doc,
)
from momentsynth.lattice import MomentSpec
from momentsynth.verify import random_instance


def _write_problem(path, spec):
    write_doc(path, problem_to_doc(spec))


def test_solve_zero_spec(tmp_path):
    problem = tmp_path / "zero.json"
    _write_problem(problem, MomentSpec(2, ((0, 0), (1, 0)), (0, 0)))
    out = tmp_path / "zero.measure.json"
    assert main(["solve", str(problem), str(out)]) == 0
    doc = read_doc(out)
    assert doc["atoms"] == []
    assert (tmp_path / "zero.measure.report").exists()


def test_solve_unsolvable_exit_2(tmp_path, capsys):
    problem = tmp_path / "bad.json"
    _write_problem(problem, MomentSpec(1, ((0,), (1,)), (0, 1)))
    code = main(["solve", str(problem), str(tmp_path / "out.json")])
    assert code == 2
    assert "unsolvable" in capsys.readouterr().err


def test_solve_convergence_failure_exit_3(tmp_path, capsys):
    problem = tmp_path / "wide.json"
    _write_problem(problem, MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j)))
    # an exception escaping main would be a traceback and fail the test
    code = main(["solve", str(problem), str(tmp_path / "out.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("convergence failure:")
    assert not (tmp_path / "out.json").exists()


def test_solve_parse_error_exit_1(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("not json", encoding="utf-8")
    assert main(["solve", str(broken), str(tmp_path / "out.json")]) == 1
    assert main(["solve", str(tmp_path / "missing.json"), str(tmp_path / "out.json")]) == 1


def test_random_solve_verify_pipeline(tmp_path):
    problem = tmp_path / "prob.json"
    assert main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "3", "--seed", "5"]) == 0
    solution = tmp_path / "sol.json"
    assert main(["solve", str(problem), str(solution)]) == 0
    assert main(["verify", str(problem), str(solution)]) == 0
    report_doc = read_doc(tmp_path / "sol.report")
    assert report_doc["max_residual"] <= 1e-8 * 10

    truth = tmp_path / "prob.measure.json"
    assert main(["verify", str(problem), str(truth)]) == 0


def test_random_outputs_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(["random", str(out), "--n", "2", "--d", "2", "--atoms", "3", "--seed", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.measure.json").read_bytes() == (tmp_path / "b.measure.json").read_bytes()


def test_solve_byte_stable(tmp_path):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "2", "--d", "1", "--atoms", "2", "--seed", "9"])
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert main(["solve", str(problem), str(out1), "--seed", "0"]) == 0
    assert main(["solve", str(problem), str(out2), "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_detects_perturbed_weight(tmp_path):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "1", "--atoms", "2", "--seed", "3"])
    truth_path = tmp_path / "prob.measure.json"
    measure = measure_from_doc(read_doc(truth_path))
    weights = measure.weights.copy()
    weights[0] += 0.1
    tampered = type(measure)(measure.n, measure.atoms, weights, scale=measure.scale)
    tampered_path = tmp_path / "tampered.json"
    write_doc(tampered_path, measure_to_doc(tampered))
    assert main(["verify", str(problem), str(tampered_path)]) == 4


def test_verify_empty_measure_on_zero_spec(tmp_path):
    problem = tmp_path / "zero.json"
    _write_problem(problem, MomentSpec(1, ((0,), (1,)), (0, 0)))
    measure_path = tmp_path / "empty.json"
    write_doc(measure_path, {"n": 1, "scale": 0.0, "atoms": []})
    assert main(["verify", str(problem), str(measure_path)]) == 0


def test_verify_dimension_mismatch_exit_1(tmp_path):
    problem = tmp_path / "prob.json"
    _write_problem(problem, MomentSpec(2, ((0, 0),), (1,)))
    measure_path = tmp_path / "m.json"
    write_doc(measure_path, {"n": 1, "scale": 0.0, "atoms": []})
    assert main(["verify", str(problem), str(measure_path)]) == 1


def test_verify_report_is_machine_readable(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "1", "--atoms", "1", "--seed", "2"])
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 0
    out = capsys.readouterr().out
    body = out[out.index("{"):]
    doc = json.loads(body)
    assert "max_residual" in doc and "residuals" in doc


def test_batch_mode(tmp_path):
    for seed in (1, 2):
        main([
            "random",
            str(tmp_path / f"case{seed}.json"),
            "--n", "1", "--d", "2", "--atoms", "2", "--seed", str(seed),
        ])
    # ground-truth companions must be skipped by the batch runner
    assert main(["batch", str(tmp_path)]) == 0
    for seed in (1, 2):
        assert (tmp_path / f"case{seed}.solution.json").exists()
        assert (tmp_path / f"case{seed}.solution.report").exists()


def test_batch_rejects_missing_directory(tmp_path):
    assert main(["batch", str(tmp_path / "nope")]) == 1
