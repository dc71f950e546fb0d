"""README's "Library use" example runs as written and prints what it says."""

import re
from pathlib import Path

from momentsynth import SolverConfig, report

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    """The python block of README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)


def test_readme_library_use_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    kind, residual = capsys.readouterr().out.splitlines()
    spec, measure = namespace["spec"], namespace["measure"]
    assert kind == "solvable"
    assert float(residual) == report(spec, measure).max_residual
    assert float(residual) <= SolverConfig().allowance(spec)
