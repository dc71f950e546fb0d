"""Solver benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload univariate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The run sets up its inputs several times (setup_s is the median),
then runs whole passes over the corpus until `--seconds` would be
exceeded.  Every answer is checked against the residual contract with the
benchmark's own numpy code, and any violation, or a verify exit code other
than the known truth, ends the run with exit code 2 and no result line.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (per corpus pass, median over passes) plus the tracing overhead.
The last line of stdout is the JSON result; a record with the environment,
per-op outcomes and (traced) the spans is written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from oracle import ContractViolation, check_solution, contract_tol, digits, relative_residual

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The machines this runs on change speed by up to 2x for seconds at a time
# (host contention: identical pure-Python work took 0.088 s and 0.168 s a
# few seconds apart).  So a fixed reference workload is timed between ops
# and each time is reported in seconds at reference speed:
# wall * REFERENCE_S / (reference time around it).  Raw wall times are kept
# in the record.
REFERENCE_S = 1.3e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "corpus_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "residual_digits_p50": "digits",
    "atoms_p50": "count",
    "peak_rss_mb": "MB",
}

# Span name -> (metric suffix, unit) reported per traced pass.
LAYER_METRICS = (
    ("dilation.min_eigenvalue", "s", "s"),
    ("dilation.min_eigenvalue", "calls", "count"),
    ("dilation.psd_check", "calls", "count"),
    ("synthesis.cf_atoms_1d", "self_s", "s"),
    ("synthesis.cf_atoms_1d", "calls", "count"),
    ("synthesis.grid_nnls", "s", "s"),
    ("synthesis.grid_nnls", "calls", "count"),
    ("synthesis.refine", "s", "s"),
    ("synthesis.refine", "calls", "count"),
    ("operators.build_tuple", "s", "s"),
    ("operators.build_tuple", "calls", "count"),
    ("dilation.fourier_table", "s", "s"),
    ("lattice.embed", "s", "s"),
    ("verify.measure_moments", "s", "s"),
    ("verify.report", "s", "s"),
    ("verify.report", "calls", "count"),
    ("cli.verify", "self_s", "s"),
)
PARSE_SPANS = ("documents.read_doc", "documents.problem_from_doc", "documents.measure_from_doc")


def _import_package():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "momentsynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no momentsynth sources under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import momentsynth  # noqa: F401
    import momentsynth.cli  # noqa: F401
    import momentsynth.documents  # noqa: F401


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "machine": platform.machine(),
    }


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found or {"unknown": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package.

    The child reads the system-wide monotonic clock once imported: waiting
    for it with a timeout polls in steps of up to 50 ms, too coarse here.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import time, momentsynth; print(repr(time.monotonic()))"],
        env=env, check=True, timeout=120, capture_output=True, text=True,
    )
    return float(done.stdout) - start


class Reference:
    """Fixed work mixing the interpreter, small LAPACK calls and one BLAS-3 product."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.random((24, 24)) + 24.0 * np.eye(24)
        self.v = rng.random(24)
        self.c = rng.random((160, 160))

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        for _ in range(20):
            np.linalg.solve(self.a, self.v)
        self.c @ self.c
        return time.perf_counter() - start

    def sample(self) -> float:
        return statistics.median(self._once() for _ in range(3))


def speed_factor(before: float, after: float) -> float:
    """Wall-to-reference-speed factor from the reference times around a span of work."""
    return REFERENCE_S / (0.5 * (before + after))


def setup(workload: str, seed: int, stack: contextlib.ExitStack, smoke: bool):
    """Build the inputs several times; return (ops, setup seconds, samples).

    One set-up is a fresh interpreter importing the package plus building
    the inputs in this process; setup_s is the median over the repeats.
    Set-up times are raw wall times: much of an import is file and process
    work, whose speed the reference workload does not track.
    """
    import workloads

    samples, ops = [], None
    for _ in range(1 if smoke else SETUP_REPEATS):
        imported = _import_seconds()
        workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=OUT)))
        start = time.perf_counter()
        ops = workloads.build(workload, seed, workdir, smoke)
        built = time.perf_counter() - start
        samples.append({"import_s": imported, "inputs_s": built, "s": imported + built})
    return ops, statistics.median(x["s"] for x in samples), samples


def check_verify_truth(ops) -> None:
    """Confirm each pair's expected exit code with the independent moments.

    Exact pairs sit at roundoff and perturbed ones near 1e-3, so double
    precision decides them with a wide margin.
    """
    from momentsynth.documents import measure_from_doc, read_doc

    for op in ops:
        measure = measure_from_doc(read_doc(op.measure))
        rel = relative_residual(op.spec, measure.atoms, measure.weights, complex)
        passes = rel <= contract_tol(op.spec.n)
        if passes != (op.expect == 0):
            raise ContractViolation(f"{op.label}: residual {rel:.3e} contradicts expected exit {op.expect}")


def run_op(op) -> dict:
    """Run one operation, time it, and check its outcome."""
    import momentsynth
    from momentsynth import cli

    if hasattr(op, "expect"):
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["verify", str(op.problem), str(op.measure)])
        except Exception as exc:  # an undocumented outcome is counted, not fatal
            return {"s": time.perf_counter() - start, "outcome": "crash", "error": repr(exc)}
        seconds = time.perf_counter() - start
        if code != op.expect:
            raise ContractViolation(f"{op.label}: verify exited {code}, expected {op.expect}")
        reported = json.loads(sink.getvalue().split("\n", 1)[1])
        if reported["atom_count"] != op.atoms:
            raise ContractViolation(f"{op.label}: verify reported {reported['atom_count']} atoms, "
                                    f"the document holds {op.atoms}")
        result = {"s": seconds, "outcome": "ok", "code": code, "atoms": reported["atom_count"]}
        if code == 0:
            scale = max(1.0, max(abs(v) for v in op.spec.values))
            result["digits"] = digits(reported["max_residual"] / scale)
        return result

    start = time.perf_counter()
    try:
        measure = momentsynth.synthesize(op.spec)
    except (momentsynth.Unsolvable, momentsynth.ConvergenceFailure) as exc:
        return {"s": time.perf_counter() - start, "outcome": "fail", "error": type(exc).__name__}
    except Exception as exc:  # an undocumented outcome is counted, not fatal
        return {"s": time.perf_counter() - start, "outcome": "crash", "error": repr(exc)}
    seconds = time.perf_counter() - start
    rel = check_solution(op.label, op.spec, measure)
    return {"s": seconds, "outcome": "ok", "atoms": len(measure), "digits": digits(rel)}


def run_pass(ops, ref: Reference, tracer=None) -> dict:
    """One pass over the corpus; `s` is wall time, `cal_s` at reference speed."""
    results, refs = [], [ref.sample()]
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        results.append(run_op(op))
        refs.append(ref.sample())
    if tracer is not None:
        tracer.op = -1
    for r, before, after in zip(results, refs, refs[1:]):
        r["factor"] = speed_factor(before, after)
        r["cal_s"] = r["s"] * r["factor"]
    return {"traced": tracer is not None, "corpus_s": sum(r["cal_s"] for r in results),
            "wall_s": sum(r["s"] for r in results), "ops": results, "refs": refs}


def tail_percentile(ops_per_pass: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it in MIN_PASSES passes.

    Fixed by the corpus size, so a faster program, which fits more passes
    in a run, is not measured at a more extreme percentile.
    """
    samples = MIN_PASSES * ops_per_pass
    return next((p for p in TAIL_PERCENTILES if samples * (1.0 - p / 100.0) >= 10.0),
                TAIL_PERCENTILES[-1])


def tail(samples: list[float], percentile: float) -> dict:
    xs = np.asarray(samples)
    value = float(np.percentile(xs, percentile))
    return {"percentile": percentile, "value": value, "beyond": int(np.sum(xs > value)), "samples": len(xs)}


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    ops = [r for p in passes for r in p["ops"]]
    ok = [r for r in ops if r["outcome"] == "ok"]
    times = [r["cal_s"] for r in ops]
    tail_info = tail(times, tail_percentile(len(passes[0]["ops"])))
    values = {
        "setup_s": setup_s,
        "corpus_s": statistics.median(p["corpus_s"] for p in passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_info["value"],
        "ok_ratio": len(ok) / len(ops),
        "residual_digits_p50": statistics.median(r["digits"] for r in ok if "digits" in r),
        "atoms_p50": statistics.median(r["atoms"] for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, tail_info


def per_layer(traced_passes, untraced_passes, layer_per_pass) -> dict:
    metrics = {}
    for span, field, unit in LAYER_METRICS:
        value = statistics.median(layers.get(span, {}).get(field, 0) for layers in layer_per_pass)
        metrics[f"{span}.{field}"] = {"value": value, "unit": unit}
    metrics["documents.parse.s"] = {
        "value": statistics.median(
            sum(layers.get(name, {}).get("s", 0.0) for name in PARSE_SPANS) for layers in layer_per_pass
        ),
        "unit": "s",
    }
    ratios = []
    for p, layers in zip(traced_passes, layer_per_pass):
        solved = sum(r["outcome"] == "ok" for r in p["ops"])
        stages = sum(layers.get(name, {}).get("calls", 0)
                     for name in ("synthesis.cf_atoms_1d", "synthesis.grid_nnls"))
        ratios.append(solved / stages if stages else 0.0)
    metrics["synthesis.stage_win_ratio"] = {"value": statistics.median(ratios), "unit": "ratio"}
    metrics["trace_overhead_ratio"] = {
        "value": statistics.median(p["corpus_s"] for p in traced_passes)
        / statistics.median(p["corpus_s"] for p in untraced_passes),
        "unit": "ratio",
    }
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; return the full record."""
    OUT.mkdir(exist_ok=True)
    ref = Reference()
    with contextlib.ExitStack() as stack:
        ops, setup_s, setup_samples = setup(workload, seed, stack, smoke)
        if workload == "verify":
            check_verify_truth(ops)
        for op in ops:
            if op.smoke:
                run_op(op)  # warm-up of lazy first-call work, untimed

        tracer = tracing.Tracer()
        passes, layer_per_pass = [], []
        begin = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                mark = len(tracer.spans)
                tracer.install()
                try:
                    passes.append(run_pass(ops, ref, tracer))
                finally:
                    tracer.uninstall()
                layer_per_pass.append(tracing.summarize(
                    tracer.spans, mark, [r["factor"] for r in passes[-1]["ops"]]))
            else:
                passes.append(run_pass(ops, ref))
            used = time.perf_counter() - begin
            enough = len(passes) >= (2 if trace else MIN_PASSES)
            longest = max(p["wall_s"] for p in passes[-2:])
            if enough and used + longest > seconds:
                break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if trace:
        metrics, tail_info = per_layer(traced_passes, untraced, layer_per_pass), None
    else:
        metrics, tail_info = end_to_end(untraced, setup_s)
    all_ops = [r for p in passes for r in p["ops"]]
    return {
        "result": {
            "correct": True,
            "attempted": len(all_ops),
            "failed": sum(r["outcome"] == "crash" for r in all_ops),
            "metrics": metrics,
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "setup_samples": setup_samples,
        "passes": [{"traced": p["traced"], "corpus_s": p["corpus_s"], "wall_s": p["wall_s"],
                    "op_s": [r["s"] for r in p["ops"]], "op_cal_s": [r["cal_s"] for r in p["ops"]],
                    "outcomes": [r["outcome"] for r in p["ops"]], "refs": p["refs"]}
                   for p in passes],
        "tail": tail_info,
        "ops": [{"label": op.label, **r} for op, r in zip(ops, passes[0]["ops"])],
        "layers_per_pass": layer_per_pass,
        "patched": sorted(tracer.sites),
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("univariate", "multivariate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _import_package()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if record["tail"]:
        t = record["tail"]
        print(f"op_tail_s is p{t['percentile']:g}: {t['beyond']} of {t['samples']} samples beyond it")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
