"""Exit status of tools/corpus.py, which lets the corpus gate a change."""

import importlib.util
import sys
from pathlib import Path

import pytest

import momentsynth.synthesis as synthesis
from momentsynth.errors import ConvergenceFailure
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"
SPEC = MomentSpec.from_items(1, [((0,), 1.0), ((1,), 0.5)])


@pytest.fixture
def tool(monkeypatch):
    """tools/corpus.py with a one-spec corpus; `main` prepends to sys.path,
    which is restored afterwards."""
    loader = importlib.util.spec_from_file_location("corpus_tool", TOOL)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(module, "corpus", lambda: [("one spec", [SPEC])])
    return module


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
