"""Exit status of tools/corpus.py, which lets the corpus gate a change."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import momentsynth.synthesis as synthesis
import momentsynth.verify as verify
from momentsynth.errors import ConvergenceFailure
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure
from momentsynth.verify import report
from test_contract import SWEEP, draw_full_range_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"
SPEC = MomentSpec.from_items(1, [((0,), 1.0), ((1,), 0.5)])
original_synthesize = synthesis.synthesize


def load_tool():
    loader = importlib.util.spec_from_file_location("corpus_tool", TOOL)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    """tools/corpus.py with a one-spec corpus; `main` prepends to sys.path,
    which is restored afterwards."""
    module = load_tool()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(module, "corpus", lambda: [("one spec", [SPEC])])
    return module


def test_corpus_runs_both_contract_sweeps():
    # so that `--against` fails a change that loses a sweep answer
    groups = dict(load_tool().corpus())
    sweep = groups["contract sweep, test_contract.SWEEP"]
    full_range = groups["full range, draw_full_range_spec s=0..999"]
    assert (len(sweep), len(full_range), sum(map(len, groups.values()))) == (402, 1000, 2776)
    assert sweep == list(SWEEP.values())
    assert full_range == [draw_full_range_spec(seed) for seed in range(1000)]
    assert groups["anisotropic n=2..3 d=1..3, rng 21"] == load_tool().anisotropic()


def test_anisotropic_group_spans_decades_per_coordinate():
    # so that `--against` guards a change to the radius of each coordinate
    specs = load_tool().anisotropic()
    assert len(specs) == 150
    assert {spec.n for spec in specs} == {2, 3}
    assert all(spec.indices[0] == (0,) * spec.n and spec.values[0] == 1.0 for spec in specs)
    # the two coordinates' moments of degree one differ by a factor of 10**6
    # or more somewhere
    spread = [abs(spec.value_of((1, 0)) / spec.value_of((0, 1))) for spec in specs
              if spec.n == 2 and {(1, 0), (0, 1)} <= set(spec.indices)]
    assert max(max(spread), 1.0 / min(spread)) > 1e6


def raises(spec):
    raise ConvergenceFailure("stubbed")


def test_exit_0_when_nothing_regresses(tool, tmp_path, monkeypatch):
    solved, raised = tmp_path / "solved", tmp_path / "raised"
    assert tool.main(["--dump", str(solved)]) == 0
    assert tool.main(["--against", str(solved)]) == 0
    monkeypatch.setattr(synthesis, "synthesize", raises)
    assert tool.main(["--dump", str(raised)]) == 0
    monkeypatch.setattr(synthesis, "synthesize", original_synthesize)
    # a spec that raised in the dump and solves now is a gain
    assert tool.main(["--against", str(raised)]) == 0


def test_exit_1_on_an_answer_over_the_contract(tool, monkeypatch):
    monkeypatch.setattr(synthesis, "synthesize", lambda spec: AtomicMeasure.empty(spec.n))
    assert tool.main([]) == 1


def test_exit_1_when_a_solved_spec_now_raises(tool, tmp_path, monkeypatch, capsys):
    solved = tmp_path / "solved"
    assert tool.main(["--dump", str(solved)]) == 0
    monkeypatch.setattr(synthesis, "synthesize", raises)
    assert tool.main(["--against", str(solved)]) == 1
    assert "1 of them solved in the dump and raise now" in capsys.readouterr().out


def records(path):
    """The records of a dump, read with the standard library's json."""
    with open(path) as f:
        return json.load(f)


def test_dump_records_residual_over_allowance(tool, tmp_path, monkeypatch):
    solved, raised = tmp_path / "solved.json", tmp_path / "raised.json"
    assert tool.main(["--dump", str(solved)]) == 0
    record, = records(solved)
    measure = synthesis.synthesize(SPEC)
    digest = hashlib.sha256(measure.atoms.tobytes() + measure.weights.tobytes()).hexdigest()
    assert {key: record[key] for key in ("group", "index", "outcome", "sha256", "atoms")} == {
        "group": "one spec", "index": 0, "outcome": "ok", "sha256": digest, "atoms": len(measure)}
    # the ratio at full precision, bit for bit
    wanted = report(SPEC, measure).max_residual / synthesis.SolverConfig().allowance(SPEC)
    assert (list(record), record["ratio"].hex()) == (list(tool.FIELDS), wanted.hex())
    monkeypatch.setattr(synthesis, "synthesize", raises)
    assert tool.main(["--dump", str(raised)]) == 0
    assert records(raised) == [{"group": "one spec", "index": 0, "outcome": "ConvergenceFailure",
                                "sha256": None, "atoms": None, "ratio": None}]


def heavy(spec):
    """Two weights of 1.7e308: the mass residual, and the ratio, are inf."""
    return AtomicMeasure(1, [[0.5], [0.5]], [1.7e308, 1.7e308], scale=0.5)


def test_dump_writes_an_infinite_ratio_as_null(tool, tmp_path, monkeypatch, capsys):
    dump = tmp_path / "heavy.json"
    monkeypatch.setattr(synthesis, "synthesize", heavy)
    assert tool.main(["--dump", str(dump)]) == 1
    (record,) = records(dump)
    assert (record["outcome"], record["atoms"], record["ratio"]) == ("ok", 2, None)
    capsys.readouterr()
    # the same answer: nothing differs, and the answer is still over
    assert tool.main(["--against", str(dump)]) == 1
    assert "one spec: 0 differing answer(s)" in capsys.readouterr().out
    # a null ratio of an ok record reads back as inf
    monkeypatch.setattr(synthesis, "synthesize", original_synthesize)
    assert tool.main(["--against", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "atom count differs: one spec #0: 2 -> 3" in out
    assert ("one spec: 1 differing answer(s), 1 in atom count, 0 in bytes only;"
            " largest residual / allowance among them inf in the dump,") in out


def test_exit_1_on_an_answer_one_ulp_over_the_contract(tool, tmp_path, monkeypatch, capsys):
    # over is decided by residual <= allowance, whatever the ratio rounds to
    bound = synthesis.SolverConfig().allowance(SPEC)
    residual = math.nextafter(bound, math.inf)
    monkeypatch.setattr(verify, "report", lambda spec, measure: SimpleNamespace(max_residual=residual))
    dump = tmp_path / "over.json"
    assert tool.main(["--dump", str(dump)]) == 1
    assert "one spec: 0 / 1 / 0 (solved / over / raised)" in capsys.readouterr().out
    (record,) = records(dump)
    assert record["ratio"] == residual / bound > 1.0
    assert f"{record['ratio']:.3g}" == "1"


def test_against_prints_the_largest_ratio_of_changed_answers(tool, tmp_path, monkeypatch, capsys):
    solved = tmp_path / "solved.json"
    assert tool.main(["--dump", str(solved)]) == 0
    was = records(solved)[0]["ratio"]
    assert tool.main(["--against", str(solved)]) == 0
    # no answer changed: no ratio to report
    assert ("one spec: 0 differing answer(s), 0 in atom count, 0 in bytes only;"
            " largest residual / allowance among them 0 in the dump, 0 now") in capsys.readouterr().out
    # an answer that moves one weight by half the allowance changes its bytes
    # only, and stays within the contract
    def moved(spec):
        measure = original_synthesize(spec)
        weights = measure.weights.copy()
        weights[0] += 0.5 * synthesis.SolverConfig().allowance(spec)
        return AtomicMeasure(measure.n, measure.atoms, weights, measure.scale)

    monkeypatch.setattr(synthesis, "synthesize", moved)
    assert tool.main(["--against", str(solved)]) == 0
    now = report(SPEC, moved(SPEC)).max_residual / synthesis.SolverConfig().allowance(SPEC)
    assert 0.4 < now < 1.0
    assert (f"one spec: 1 differing answer(s), 0 in atom count, 1 in bytes only;"
            f" largest residual / allowance among them {was:.3g} in the dump,"
            f" {now:.3g} now") in capsys.readouterr().out


def test_against_counts_new_specs_apart_from_changed_outcomes(tool, tmp_path, monkeypatch, capsys):
    # a dump written before a spec joined its group: that spec is new, and
    # no outcome of the dump changed
    solved = tmp_path / "solved"
    assert tool.main(["--dump", str(solved)]) == 0
    grown = MomentSpec.from_items(1, [((0,), 2.0), ((1,), 1j)])
    monkeypatch.setattr(tool, "corpus", lambda: [("one spec", [SPEC, grown])])
    capsys.readouterr()
    assert tool.main(["--against", str(solved)]) == 0
    out = capsys.readouterr().out
    assert "outcome differs" not in out
    assert "0 outcome(s) differ, 0 of them solved in the dump and raise now" in out
    assert "one spec: 1 spec(s) absent from the dump, 1 of them solved now" in out
