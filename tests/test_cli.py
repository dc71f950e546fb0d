import dataclasses
import gc
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from momentsynth import cli
from momentsynth.cli import main
from momentsynth.documents import (
    measure_from_doc,
    measure_to_doc,
    problem_from_doc,
    problem_to_doc,
    read_doc,
    report_to_doc,
    write_doc,
)
from momentsynth.errors import ConvergenceFailure
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure
from momentsynth.synthesis import SolverConfig
from momentsynth.verify import random_instance, report


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
    # the rows of ROADMAP.md's Baseline that no one-radius answer solves
    for name, spec in (
        ("wide", MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j))),
        ("mass", MomentSpec(1, ((0,), (1,), (2,)), (1e-12, 1.0, 1j))),
    ):
        problem = tmp_path / f"{name}.json"
        _write_problem(problem, spec)
        # an exception escaping main would be a traceback and fail the test
        code = main(["solve", str(problem), str(tmp_path / "out.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure:")
        assert "; (lattice, 5 nodes) moment sums on radius" in err
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("error", [ConvergenceFailure])
def test_every_solver_error_exits_3(tmp_path, capsys, monkeypatch, error):
    def failing(spec, config=None):
        raise error("stage gave up")

    monkeypatch.setattr(cli, "synthesize", failing)
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "2", "--d", "1", "--atoms", "2", "--seed", "1"])
    capsys.readouterr()
    # an exception escaping main would be a traceback and fail the test
    assert main(["solve", str(problem), str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err == "convergence failure: stage gave up\n"
    assert main(["batch", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "convergence failure: stage gave up\n"
    assert "prob.json: exit 3" in captured.out
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "prob.solution.json").exists()


def test_solve_parse_error_exit_1(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("not json", encoding="utf-8")
    assert main(["solve", str(broken), str(tmp_path / "out.json")]) == 1
    assert main(["solve", str(tmp_path / "missing.json"), str(tmp_path / "out.json")]) == 1


def test_solve_out_of_range_flags_exit_1(tmp_path, capsys):
    # nan ran the whole ladder and exited 3, inf wrote `Infinity` (not JSON)
    # into the report, and verify judged against either instead of refusing
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "3", "--atoms", "2", "--seed", "1"])
    capsys.readouterr()
    for tol in ("0", "-1", "nan", "inf"):
        for argv in (
            ["solve", str(problem), str(tmp_path / "out.json")],
            ["verify", str(problem), str(tmp_path / "prob.measure.json")],
            ["batch", str(tmp_path)],
        ):
            assert main([*argv, "--tol", tol]) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: tol must be finite and positive"), argv
            assert captured.out == "", argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.json", "prob.measure.json"]


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse's own code for these is 2, which means "unsolvable" here
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "1"])
    out = str(tmp_path / "out.json")
    capsys.readouterr()
    for argv in (
        ["solve", str(problem), out, "--bogus"],
        ["solve", str(problem), out, "--tol", "abc"],
        # the solver takes no setting but --tol
        ["solve", str(problem), out, "--grid", "32"],
        ["solve", str(problem), out, "--margin", "2"],
        ["solve", str(problem), out, "--box-degree", "3"],
        ["batch", str(tmp_path), "--grid", "32"],
        ["batch", str(tmp_path), "--margin", "2"],
        ["batch", str(tmp_path), "--box-degree", "3"],
        ["solve", str(problem)],
        ["solve", str(problem), out, "--seed", "0"],  # only `random` takes a seed
        ["batch", str(tmp_path), "--seed", "0"],
        ["verify", str(problem)],
        ["frobnicate"],
        [],
    ):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.json", "prob.measure.json"]


def test_report_config_is_the_solver_config(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "1"])
    out = tmp_path / "out.json"
    assert main(["solve", str(problem), str(out)]) == 0
    keys = list(read_doc(tmp_path / "out.report")["config"])
    assert keys == ["tol"]
    assert keys == [field.name for field in dataclasses.fields(SolverConfig)]
    capsys.readouterr()
    for command in (["solve", str(problem), str(tmp_path / "again.json")], ["batch", str(tmp_path)]):
        assert main([*command, "--no-normalize"]) == 1, command
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "again.json").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    for command in ("solve", "verify", "batch"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--tol" in out
        assert not any(flag in out for flag in ("--grid", "--margin", "--box-degree")), command


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


def test_solve_then_verify_agree_at_degree_13(tmp_path):
    # double-precision moments of this answer read over the allowance, so
    # solve, its report and verify must all judge it the same way
    spec, _ = random_instance(1, 13, 4, 4)
    problem = tmp_path / "prob.json"
    _write_problem(problem, spec)
    solution = tmp_path / "sol.json"
    assert main(["solve", str(problem), str(solution)]) == 0
    assert main(["verify", str(problem), str(solution)]) == 0
    report_doc = read_doc(tmp_path / "sol.report")
    assert report_doc["max_residual"] <= 1e-8 * max(1.0, max(abs(v) for v in spec.values))


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
    assert main(["solve", str(problem), str(out1)]) == 0
    assert main(["solve", str(problem), str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("tol", [None, "1e-7"])
def test_solve_report_file_is_the_indented_json_of_the_report(tmp_path, tol):
    problem, out = tmp_path / "prob.json", tmp_path / "sol.json"
    main(["random", str(problem), "--n", "2", "--d", "3", "--atoms", "4", "--seed", "9"])
    assert main(["solve", str(problem), str(out)] + ([] if tol is None else ["--tol", tol])) == 0
    spec = problem_from_doc(read_doc(problem))
    config = SolverConfig(tol=None if tol is None else float(tol))
    rep = report(spec, measure_from_doc(read_doc(out)), config)
    expect = json.dumps(report_to_doc(rep), indent=2) + "\n"
    assert (tmp_path / "sol.report").read_bytes() == expect.encode("utf-8")


def test_verify_reads_its_documents_with_the_collector_paused(tmp_path, monkeypatch):
    # the decoded trees die before the collector resumes, so none is walked
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "2", "--d", "2", "--atoms", "3", "--seed", "5"])
    seen = []
    parse = cli.measure_from_doc
    monkeypatch.setattr(cli, "measure_from_doc", lambda doc: seen.append(gc.isenabled()) or parse(doc))
    was = gc.isenabled()
    gc.enable()
    try:
        assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 0
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] and after


def test_verify_number_written_as_a_string_exit_1(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    measure_path = tmp_path / "prob.measure.json"
    doc = read_doc(measure_path)
    doc["atoms"][0]["w"] = str(doc["atoms"][0]["w"])
    write_doc(measure_path, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(measure_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed measure document: w '")


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


def test_verify_non_integral_exponent_exit_1(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    doc = read_doc(problem)
    doc["moments"][1]["k"] = [1.5]
    write_doc(problem, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed problem document: 1.5 is not an integer")


def test_verify_repeated_moment_exit_1(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    doc = read_doc(problem)
    doc["moments"].append(doc["moments"][1])
    write_doc(problem, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed problem document: duplicate multi-index in spec\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_moment_with_a_modulus_beyond_a_double_exit_1(tmp_path, capsys, command):
    # verify printed PASS against an allowance of inf; solve ended in a traceback
    problem, measure = tmp_path / "prob.json", tmp_path / "prob.measure.json"
    write_doc(problem, {"n": 1, "moments": [{"k": [0], "re": 1.0, "im": 0.0},
                                            {"k": [1], "re": 1.7e308, "im": 1.7e308}]})
    write_doc(measure, measure_to_doc(AtomicMeasure(1, [[1.0]], [7.0], scale=1.0)))
    assert main([command, str(problem), str(measure)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed problem document: moment value")
    assert captured.err.endswith("has a modulus beyond the range of a double\n")


@pytest.mark.parametrize("document, field", [
    ("prob.json", "n"),
    ("prob.json", "k"),
    ("prob.measure.json", "n"),
], ids=["problem n", "problem k", "measure n"])
def test_verify_boolean_integer_exit_1(tmp_path, capsys, document, field):
    # int() reads true as 1, so each of these documents verified at n=1
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    path = tmp_path / document
    doc = read_doc(path)
    if field == "n":
        doc["n"] = True
    else:
        doc["moments"][1]["k"] = [True]
    write_doc(path, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = "measure" if "measure" in document else "problem"
    assert captured.err == f"error: malformed {kind} document: True is not an integer\n"


def test_verify_exponent_beyond_an_array_index_exit_1(tmp_path, capsys):
    # an integral float parses, but no array index holds it; the document
    # is only verified, since solving it would embed a box of degree 1e20
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    doc = read_doc(problem)
    doc["moments"][1]["k"] = [1e20]
    write_doc(problem, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: exponent {10**20} does not fit an array index")


def test_verify_exponent_beyond_the_limit_exit_1(tmp_path, capsys):
    # an exponent that fits an array index but not one block's power table
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "5"])
    doc = read_doc(problem)
    doc["moments"][1]["k"] = [100000]
    write_doc(problem, doc)
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent 100000 exceeds the limit 65535")


def test_verify_report_is_machine_readable(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "1", "--d", "1", "--atoms", "1", "--seed", "2"])
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json")]) == 0
    out = capsys.readouterr().out
    body = out[out.index("{"):]
    doc = json.loads(body)
    assert "max_residual" in doc and "residuals" in doc


@pytest.mark.parametrize("flags, config", [([], {"tol": None}), (["--tol", "1e-7"], {"tol": 1e-7})])
def test_verify_report_echoes_its_config(tmp_path, capsys, flags, config):
    problem = tmp_path / "prob.json"
    main(["random", str(problem), "--n", "2", "--d", "2", "--atoms", "3", "--seed", "4"])
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "prob.measure.json"), *flags]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["config"] == config


def _strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_verify_report_writes_a_moment_beyond_a_double_as_null(tmp_path, capsys):
    # z**2 of an atom at 1e200 is beyond a double: its residual reads as inf
    problem, measure = tmp_path / "prob.json", tmp_path / "far.json"
    _write_problem(problem, MomentSpec(1, ((0,), (2,)), (1, 0.5)))
    write_doc(measure, measure_to_doc(AtomicMeasure(1, [[1e200]], [1.0], scale=1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(problem), str(measure)]) == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out[captured.out.index("{"):], parse_constant=_strict_json)
    assert doc["max_residual"] is None
    assert [entry["abs_err"] for entry in doc["residuals"]] == [0.0, None]
    assert captured.err == ""


def test_random_rejects_dimension_zero(tmp_path, capsys):
    assert main(["random", str(tmp_path / "x.json"), "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: dimension must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_batch_mode(tmp_path):
    for seed in (1, 2):
        main([
            "random",
            str(tmp_path / f"case{seed}.json"),
            "--n", "1", "--d", "2", "--atoms", "2", "--seed", str(seed),
        ])
    # ground-truth companions must be skipped by the batch runner
    assert main(["batch", str(tmp_path), "--tol", "1e-7"]) == 0
    for seed in (1, 2):
        assert (tmp_path / f"case{seed}.solution.json").exists()
        report_doc = read_doc(tmp_path / f"case{seed}.solution.report")
        assert report_doc["config"] == {"tol": 1e-7}


def test_batch_rejects_missing_directory(tmp_path):
    assert main(["batch", str(tmp_path / "nope")]) == 1


def _write_deep(path, depth=100_000):
    """A valid JSON array nested `depth` deep, far beyond the decoder's limit."""
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_deeply_nested_document_is_invalid_json_exit_1(tmp_path, capsys, command):
    # the recursive decoder ended the run with a RecursionError traceback
    deep = tmp_path / "deep.json"
    _write_deep(deep)
    other = deep if command == "verify" else tmp_path / "out.json"
    assert main([command, str(deep), str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {deep}: invalid JSON: ")


def test_batch_goes_on_after_a_deeply_nested_document(tmp_path, capsys):
    _write_deep(tmp_path / "a_deep.json")
    main(["random", str(tmp_path / "b_case.json"), "--n", "1", "--d", "2", "--atoms", "2", "--seed", "1"])
    capsys.readouterr()
    assert main(["batch", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "a_deep.json: exit 1" and lines[-1] == "b_case.json: exit 0"
    assert captured.err.startswith(f"error: {tmp_path / 'a_deep.json'}: invalid JSON: ")
    assert (tmp_path / "b_case.solution.json").exists()


def test_deeply_nested_document_prints_no_traceback(tmp_path):
    deep = tmp_path / "deep.json"
    _write_deep(deep)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "momentsynth", "verify", str(deep), str(deep)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {deep}: invalid JSON: ")
    assert "Traceback" not in done.stderr


def test_solve_text_that_is_not_utf8_is_invalid_json_exit_1(tmp_path, capsys):
    # read as text, it failed with the codec's own message
    problem = tmp_path / "latin1.json"
    problem.write_bytes('{"n": 1, "moments": [], "note": "café"}'.encode("latin-1"))
    assert main(["solve", str(problem), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {problem}: invalid JSON: ")


COLD_START = textwrap.dedent("""
    import sys
    from pathlib import Path

    sys.modules["scipy"] = None  # any import of scipy now raises

    import momentsynth
    from momentsynth import cli, synthesis

    refits = []
    refit = synthesis._clamped_least_squares

    def counting_refit(A, b):
        refits.append(A.shape)
        return refit(A, b)

    synthesis._clamped_least_squares = counting_refit
    work = Path(sys.argv[1])
    for n in (3, 2):
        problem = str(work / f"n{n}.json")
        assert cli.main(["random", problem, "--n", str(n), "--d", "1",
                         "--atoms", "2", "--seed", "4"]) == 0
    truth = str(work / "n3.measure.json")
    assert cli.main(["verify", str(work / "n3.json"), truth]) == 0
    assert cli.main(["solve", str(work / "n3.json"), str(work / "n3.sol.json")]) == 0
    # this spec solves on the grid fit, whose solver is the package's own
    assert cli.main(["solve", str(work / "n2.json"), str(work / "n2.sol.json")]) == 0
    assert cli.main(["verify", str(work / "n2.json"), str(work / "n2.sol.json")]) == 0
    # the split misses this one, and the lattice stage answers unrefined
    split = str(work / "split.json")
    assert cli.main(["random", split, "--n", "1", "--d", "16", "--atoms", "4", "--seed", "3"]) == 0
    assert cli.main(["solve", split, str(work / "split.sol.json")]) == 0
    assert refits == [], "a refinement ran before the refined spec"
    # the grid fit misses this one, so a refinement refits its weights
    refined = str(work / "refined.json")
    assert cli.main(["random", refined, "--n", "2", "--d", "4", "--atoms", "1", "--seed", "8"]) == 0
    assert cli.main(["solve", refined, str(work / "refined.sol.json")]) == 0
    assert cli.main(["verify", refined, str(work / "refined.sol.json")]) == 0
    assert refits, "the refinement did not run"
    loaded = [name for name, module in sys.modules.items()
              if name.split(".")[0] == "scipy" and module is not None]
    assert loaded == [], loaded
""")


def test_no_solve_loads_scipy(tmp_path):
    # a fresh interpreter: this test process has long imported scipy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
