"""Run `synthesize` over the 2,776-spec scratch corpus of ROADMAP.md.

    python3 tools/corpus.py [--src DIR] [--dump FILE] [--against FILE]

Prints, per group, how many specs solved within the residual contract,
returned an answer over it, or raised, the median atom count of its
answers and the group's seconds.  The specs
are drawn from numpy.random.default_rng(11..14) in the order listed in
`corpus`, with `random_box_spec` from tests/conftest.py of this checkout,
then come the 200 specs of the high-degree group:
`random_instance(n, d, 4, s)` for s = 0..19 at n=1 d=24, 32, 48, 64, 96,
n=2 d=8, 10, 12 and n=3 d=5, 6, and the 240 specs
`random_instance(2, 5, m, s)` for m = 1..6 atoms and s = 0..39, on which
the two-variable grid fit often misses and `refine` runs, and the 150
anisotropic specs of `anisotropic`, whose coordinates live on scales
decades apart, so one torus radius serves them badly.  Last come the
two contract sweeps of tests/test_contract.py, imported from it as
`random_box_spec` is from conftest: the 402 specs of `SWEEP`, and
`draw_full_range_spec(s)` for s = 0..999, so that a change that loses a
sweep answer fails `--against`.

`--src` imports momentsynth from another source tree (default: this
checkout's src/), so two trees run on the same specs.  An answer is within
the contract when its residual is at most `SolverConfig().allowance(spec)`.
`--dump FILE` writes one line per spec: group, index, the outcome (`ok` or
the exception class), the SHA-256 of the answer's atom and weight bytes,
the answer's atom count and its residual divided by the allowance (`-` for
the last three when it raised).  Two dumps are equal exactly when the
trees return bit-identical measures and raise the same exception classes.
`--against FILE` compares this run with such a dump: it prints every spec
whose outcome differs, then per group the specs absent from the dump
(new specs, counted apart from changed outcomes) and how many of them
solve now, every answer whose atom count differs and how many specs
solved on both sides with different answers, how many of those differ in
their bytes only, and the largest residual / allowance among them in the
dump and now, which shows how near the changed answers come to the
contract.

The exit status is 1 when any answer is over the contract, or when
`--against` finds a spec that solved in the dump and now raises; otherwise
it is 0, also when specs that raised in the dump now solve.  So the script
can gate a change: dump the parent tree with `--src`, then run the change
`--against` that dump.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def anisotropic():
    """150 sparse specs from numpy.random.default_rng(21).  Each draws, in
    this order: n in 2..3, d in 1..3, one scale 10**uniform(-6, 6) per
    coordinate, for each nonzero exponent of the box {0..d}**n in box order
    whether it is kept (random() < 0.6), then for the zero exponent and each
    kept one 0.3 sqrt(random()) e^(2 pi i random()) times the product of
    the scales to the exponent's powers.  The mass is then set to 1."""
    from momentsynth.lattice import MomentSpec, box

    rng = np.random.default_rng(21)
    specs = []
    for _ in range(150):
        n, d = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        scales = 10.0 ** rng.uniform(-6, 6, n)
        indices = box(n, d)
        indices = indices[:1] + tuple(k for k in indices[1:] if rng.random() < 0.6)
        values = [0.3 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                  * np.prod(scales ** np.array(k)) for k in indices]
        specs.append(MomentSpec.from_items(n, zip(indices, [1.0] + values[1:])))
    return specs


def corpus():
    """The corpus as (group name, [MomentSpec, ...]) pairs, in run order."""
    from conftest import random_box_spec
    from momentsynth.verify import random_instance
    from test_contract import SWEEP, draw_full_range_spec

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
    degrees = [(1, d) for d in (24, 32, 48, 64, 96)] + [(2, d) for d in (8, 10, 12)] + [(3, 5), (3, 6)]
    groups.append(("high degree random_instance n=1..3 s=0..19",
                   [random_instance(n, d, 4, s)[0] for n, d in degrees for s in range(20)]))
    groups.append(("random_instance n=2 d=5 atoms=1..6 s=0..39",
                   [random_instance(2, 5, m, s)[0] for m in range(1, 7) for s in range(40)]))
    groups.append(("anisotropic n=2..3 d=1..3, rng 21", anisotropic()))
    groups.append(("contract sweep, test_contract.SWEEP", list(SWEEP.values())))
    groups.append(("full range, draw_full_range_spec s=0..999",
                   [draw_full_range_spec(s) for s in range(1000)]))
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

    allowance = SolverConfig().allowance
    lines = []
    over = 0
    for name, specs in corpus():
        counts = {"solved": 0, "over": 0, "raised": 0}
        atoms = []
        start = time.perf_counter()
        for index, spec in enumerate(specs):
            try:
                measure = synthesize(spec)
            except SolverError as exc:
                counts["raised"] += 1
                lines.append(f"{name}\t{index}\t{type(exc).__name__}\t-\t-\t-")
                continue
            residual = report(spec, measure).max_residual
            counts["solved" if residual <= allowance(spec) else "over"] += 1
            ratio = residual / allowance(spec)
            atoms.append(len(measure))
            digest = hashlib.sha256(measure.atoms.tobytes() + measure.weights.tobytes())
            lines.append(f"{name}\t{index}\tok\t{digest.hexdigest()}\t{len(measure)}\t{ratio:.3g}")
        seconds = time.perf_counter() - start
        over += counts["over"]
        median = f"{np.median(atoms):g}" if atoms else "-"
        print(f"{name}: {counts['solved']} / {counts['over']} / {counts['raised']}"
              f" (solved / over / raised), median {median} atoms, {seconds:.2f} s")
    if args.dump is not None:
        args.dump.write_text("\n".join(lines) + "\n")
    lost = 0
    if args.against is not None:
        lost = compare(lines, args.against.read_text().splitlines())
    return 1 if over or lost else 0


def compare(lines: list[str], reference: list[str]) -> int:
    """Print the specs whose outcome differs from a dump, then per group the
    specs absent from the dump, the answers whose atom count differs, the
    number of differing answers among specs solved on both sides, and their
    largest residual / allowance at the dump and now.  Returns the number of
    specs that solved in the dump and raise now."""
    before = {}
    for line in reference:
        name, index, outcome, digest, count, ratio = line.split("\t")
        before[name, index] = (outcome, digest, count, ratio)
    groups = {line.split("\t")[0]: {"new": 0, "new_ok": 0, "answers": 0, "bytes": 0,
                                    "was": 0.0, "now": 0.0}
              for line in lines}
    outcomes = lost = 0
    for line in lines:
        name, index, outcome, digest, count, ratio = line.split("\t")
        old = before.get((name, index))
        tally = groups[name]
        if old is None:
            tally["new"] += 1
            tally["new_ok"] += outcome == "ok"
        elif old[0] != outcome:
            outcomes += 1
            lost += old[0] == "ok"
            print(f"outcome differs: {name} #{index}: {old[0]} -> {outcome}")
        elif old[1] != digest:
            tally["answers"] += 1
            tally["was"] = max(tally["was"], float(old[3]))
            tally["now"] = max(tally["now"], float(ratio))
            if old[2] == count:
                tally["bytes"] += 1
            else:
                print(f"atom count differs: {name} #{index}: {old[2]} -> {count}")
    print(f"{outcomes} outcome(s) differ, {lost} of them solved in the dump and raise now")
    for name, tally in groups.items():
        if tally["new"]:
            print(f"{name}: {tally['new']} spec(s) absent from the dump, {tally['new_ok']} of them"
                  f" solved now")
        counted = tally["answers"] - tally["bytes"]
        print(f"{name}: {tally['answers']} differing answer(s), {counted} in atom count,"
              f" {tally['bytes']} in bytes only; largest residual / allowance among them"
              f" {tally['was']:.3g} in the dump, {tally['now']:.3g} now")
    return lost


if __name__ == "__main__":
    sys.exit(main())
