"""Command-line front end: solve, verify, random, batch.

Exit codes: 0 success, 1 parse, IO or invalid-option error, 2 unsolvable
input, 3 synthesis convergence failure, 4 verification residual above
tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .documents import (
    collector_paused,
    measure_from_doc,
    measure_to_doc,
    problem_from_doc,
    problem_to_doc,
    read_doc,
    report_json,
    report_to_doc,
    write_doc,
)
from .errors import SolverError, Unsolvable
from .synthesis import SolverConfig, synthesize
from .verify import random_instance, report


def _report_path(output: Path) -> Path:
    return output.with_suffix(".report")


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = SolverConfig(tol=args.tol)
        spec = problem_from_doc(read_doc(Path(args.input)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        measure = synthesize(spec, config)
    except Unsolvable as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        # synthesize raises ConvergenceFailure, listing the older stage's errors in it
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    rep = report(spec, measure, config)
    output = Path(args.output)
    try:
        write_doc(output, measure_to_doc(measure))
        _report_path(output).write_text(report_json(report_to_doc(rep)) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"solved: {rep.atom_count} atoms, mass {rep.total_mass:.12g}, "
        f"support radius {rep.support_radius:.12g}, "
        f"max residual {rep.max_residual:.3e}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = SolverConfig(tol=args.tol)
        # the decoded trees are freed before the collector resumes, so no
        # collection walks them
        with collector_paused():
            spec = problem_from_doc(read_doc(Path(args.problem)))
            measure = measure_from_doc(read_doc(Path(args.measure)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if measure.n != spec.n:
        print(
            f"error: dimension mismatch (problem n={spec.n}, measure n={measure.n})",
            file=sys.stderr,
        )
        return 1
    allowance = config.allowance(spec)
    try:
        rep = report(spec, measure, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passed = rep.max_residual <= allowance
    print(
        f"{'PASS' if passed else 'FAIL'}: max residual {rep.max_residual:.3e} "
        f"vs allowance {allowance:.3e}"
    )
    print(report_json(report_to_doc(rep)))
    return 0 if passed else 4


def _cmd_random(args: argparse.Namespace) -> int:
    output = Path(args.output)
    try:
        spec, measure = random_instance(
            args.n, args.d, args.atoms, args.seed, radius=args.radius
        )
        write_doc(output, problem_to_doc(spec))
        write_doc(output.with_suffix(".measure.json"), measure_to_doc(measure))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {output} and {output.with_suffix('.measure.json')}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    try:
        SolverConfig(tol=args.tol)  # one error for the run, not one per problem
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    problems = sorted(
        p
        for p in directory.glob("*.json")
        if not p.name.endswith(".measure.json") and not p.name.endswith(".solution.json")
    )
    worst = 0
    for problem in problems:
        solve_args = argparse.Namespace(
            **vars(args),
            input=str(problem),
            output=str(problem.with_suffix(".solution.json")),
        )
        code = _cmd_solve(solve_args)
        print(f"{problem.name}: exit {code}")
        if code and not worst:
            worst = code
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentsynth",
        description="Solve truncated complex moment problems with atomic measures on a scaled torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem document")
    solve.add_argument("input", help="problem JSON path")
    solve.add_argument("output", help="measure JSON path (report written with .report suffix)")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a measure against a problem")
    verify.add_argument("problem", help="problem JSON path")
    verify.add_argument("measure", help="measure JSON path")
    verify.set_defaults(func=_cmd_verify)

    random_cmd = sub.add_parser("random", help="generate a seeded instance with a known solution")
    random_cmd.add_argument("output", help="problem JSON path (ground truth written with .measure.json suffix)")
    random_cmd.add_argument("--n", type=int, default=1, help="number of complex variables")
    random_cmd.add_argument("--d", type=int, default=2, help="exponent box degree")
    random_cmd.add_argument("--atoms", type=int, default=3, help="number of atoms")
    random_cmd.add_argument("--seed", type=int, default=0, help="generator seed")
    random_cmd.add_argument("--radius", type=float, default=1.0, help="polydisc radius for the atoms")
    random_cmd.set_defaults(func=_cmd_random)

    batch = sub.add_parser("batch", help="solve every problem document in a directory")
    batch.add_argument("directory", help="directory of problem JSON files")
    batch.set_defaults(func=_cmd_batch)

    for command in (solve, verify, batch):
        command.add_argument("--tol", type=float, default=None, help="residual target (scaled by the largest moment magnitude)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but 2 is the
        # documented code for an unsolvable problem
        return 0 if exc.code == 0 else 1
    return args.func(args)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
