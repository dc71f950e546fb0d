"""Run `synthesize` over the 784-spec scratch corpus of ROADMAP.md.

    python3 tools/corpus.py [--src DIR] [--dump FILE] [--against FILE]

Prints, per group, how many specs solved within the residual contract,
returned an answer over it, or raised, and the group's seconds.  The specs
are drawn from numpy.random.default_rng(11..14) in the order listed in
`GROUPS`, with `random_box_spec` from tests/conftest.py of this checkout.

`--src` imports momentsynth from another source tree (default: this
checkout's src/), so two trees run on the same specs.  `--dump FILE` writes
one line per spec: group, index, the outcome (`ok` or the exception class)
and the SHA-256 of the answer's atom and weight bytes.  Two dumps are equal
exactly when the trees return bit-identical measures and raise the same
exception classes.  `--against FILE` compares this run with such a dump: it
prints every spec whose outcome differs, then per group how many specs
solved on both sides with different answers.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def corpus():
    """The corpus as (group name, [MomentSpec, ...]) pairs, in run order."""
    from conftest import random_box_spec
    from momentsynth.verify import random_instance

    groups = [
        ("random_instance n=1 d=11..15 s=0..39",
         [random_instance(1, d, 4, s)[0] for d in range(11, 16) for s in range(40)]),
    ]
    rng = np.random.default_rng(11)
    groups.append(("arbitrary n=1 d=1..8, rng 11",
                   [random_box_spec(rng, n=1, degree=int(rng.integers(1, 9))) for _ in range(200)]))
    rng = np.random.default_rng(12)
    groups.append(("arbitrary n=1..3 d=1..3, rng 12",
                   [random_box_spec(rng) for _ in range(150)]))
    rng = np.random.default_rng(13)
    groups.append(("wide n=1..3 d=1..3 magnitude 1e6, rng 13",
                   [random_box_spec(rng, magnitude=1e6, mass_floor=1e-3) for _ in range(150)]))
    rng = np.random.default_rng(14)
    specs = []
    for _ in range(84):
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        specs.append(random_instance(n, d, 4, int(rng.integers(2**31)))[0])
    groups.append(("random_instance n=2..4 d=1..3, rng 14", specs))
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--dump", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]

    from momentsynth.errors import SolverError
    from momentsynth.synthesis import SolverConfig, synthesize
    from momentsynth.verify import report

    lines = []
    for name, specs in corpus():
        counts = {"solved": 0, "over": 0, "raised": 0}
        start = time.perf_counter()
        for index, spec in enumerate(specs):
            try:
                measure = synthesize(spec)
            except SolverError as exc:
                counts["raised"] += 1
                lines.append(f"{name}\t{index}\t{type(exc).__name__}\t-")
                continue
            limit = SolverConfig().resolved_tol(spec.n) * max(1.0, max(abs(v) for v in spec.values))
            counts["solved" if report(spec, measure).max_residual <= limit else "over"] += 1
            digest = hashlib.sha256(measure.atoms.tobytes() + measure.weights.tobytes())
            lines.append(f"{name}\t{index}\tok\t{digest.hexdigest()}")
        seconds = time.perf_counter() - start
        print(f"{name}: {counts['solved']} / {counts['over']} / {counts['raised']}"
              f" (solved / over / raised), {seconds:.2f} s")
    if args.dump is not None:
        args.dump.write_text("\n".join(lines) + "\n")
    if args.against is not None:
        compare(lines, args.against.read_text().splitlines())
    return 0


def compare(lines: list[str], reference: list[str]) -> None:
    """Print the specs whose outcome differs from a dump, then the number of
    differing answers per group among specs solved on both sides."""
    before = {tuple(line.split("\t")[:2]): line.split("\t")[2:] for line in reference}
    answers = dict.fromkeys((line.split("\t")[0] for line in lines), 0)
    outcomes = 0
    for line in lines:
        name, index, outcome, digest = line.split("\t")
        old = before.get((name, index))
        if old is None or old[0] != outcome:
            outcomes += 1
            print(f"outcome differs: {name} #{index}: {old[0] if old else 'absent'} -> {outcome}")
        elif old[1] != digest:
            answers[name] += 1
    print(f"{outcomes} outcome(s) differ")
    for name, count in answers.items():
        print(f"{name}: {count} differing answer(s)")


if __name__ == "__main__":
    sys.exit(main())
