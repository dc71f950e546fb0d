"""Exit status of tools/corpus.py, which lets the corpus gate a change."""

import importlib.util
import sys
from pathlib import Path

import pytest

import momentsynth.synthesis as synthesis
from momentsynth.errors import ConvergenceFailure
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure
from momentsynth.verify import report
from test_contract import SWEEP, draw_full_range_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"
SPEC = MomentSpec.from_items(1, [((0,), 1.0), ((1,), 0.5)])


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
    original = synthesis.synthesize
    monkeypatch.setattr(synthesis, "synthesize", raises)
    assert tool.main(["--dump", str(raised)]) == 0
    monkeypatch.setattr(synthesis, "synthesize", original)
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


def dumped(path):
    """The fields of every line of a dump, past the group and the index."""
    return [line.split("\t")[2:] for line in path.read_text().splitlines()]


def test_dump_records_residual_over_allowance(tool, tmp_path, monkeypatch):
    solved, raised = tmp_path / "solved", tmp_path / "raised"
    assert tool.main(["--dump", str(solved)]) == 0
    (outcome, _, count, ratio), = dumped(solved)
    measure = synthesis.synthesize(SPEC)
    wanted = report(SPEC, measure).max_residual / synthesis.SolverConfig().allowance(SPEC)
    assert (outcome, count, ratio) == ("ok", str(len(measure)), f"{wanted:.3g}")
    monkeypatch.setattr(synthesis, "synthesize", raises)
    assert tool.main(["--dump", str(raised)]) == 0
    assert dumped(raised) == [["ConvergenceFailure", "-", "-", "-"]]


def test_against_prints_the_largest_ratio_of_changed_answers(tool, tmp_path, monkeypatch, capsys):
    solved = tmp_path / "solved"
    assert tool.main(["--dump", str(solved)]) == 0
    (_, _, _, was), = dumped(solved)
    assert tool.main(["--against", str(solved)]) == 0
    # no answer changed: no ratio to report
    assert ("one spec: 0 differing answer(s), 0 in atom count, 0 in bytes only;"
            " largest residual / allowance among them 0 in the dump, 0 now") in capsys.readouterr().out
    # an answer that moves one weight by half the allowance changes its bytes
    # only, and stays within the contract
    original = synthesis.synthesize

    def moved(spec):
        measure = original(spec)
        weights = measure.weights.copy()
        weights[0] += 0.5 * synthesis.SolverConfig().allowance(spec)
        return AtomicMeasure(measure.n, measure.atoms, weights, measure.scale)

    monkeypatch.setattr(synthesis, "synthesize", moved)
    assert tool.main(["--against", str(solved)]) == 0
    now = report(SPEC, moved(SPEC)).max_residual / synthesis.SolverConfig().allowance(SPEC)
    assert 0.4 < now < 1.0
    assert (f"one spec: 1 differing answer(s), 0 in atom count, 1 in bytes only;"
            f" largest residual / allowance among them {float(was):.3g} in the dump,"
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
