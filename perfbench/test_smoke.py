"""Smoke test of the benchmark: a sub-second slice of each workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Layer functions that must run on each workload's slice.
MUST_RUN = {
    "univariate": ("dilation.min_eigenvalue", "dilation.psd_check", "synthesis.cf_atoms_1d"),
    "multivariate": ("synthesis.grid_nnls", "synthesis.refine"),
    "verify": ("verify.measure_moments", "documents.measure_from_doc", "cli.verify"),
}


@pytest.fixture(scope="module", autouse=True)
def package():
    run._import_package()


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", sorted(MUST_RUN))
def test_untraced_slice_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=0, seconds=0.1, trace=False, smoke=True)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(MUST_RUN))
def test_traced_slice_emits_every_layer_metric_and_runs_its_layers(workload):
    record = run.run(workload, seed=0, seconds=0.1, trace=True, smoke=True)
    assert _units(record["result"]["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert record["layers_per_pass"]
    for layers in record["layers_per_pass"]:
        for span in MUST_RUN[workload]:
            assert layers.get(span, {}).get("calls", 0) > 0, span


def test_every_importing_module_is_patched():
    record = run.run("multivariate", seed=0, seconds=0.1, trace=True, smoke=True)
    for site in ("momentsynth.synthesis.report", "momentsynth.cli.report",
                 "momentsynth.dilation.psd_check", "momentsynth.synthesis.psd_check",
                 "momentsynth.verify.measure_moments", "momentsynth.measure_moments"):
        assert site in record["patched"]


def test_oracle_rejects_an_answer_over_the_contract():
    import momentsynth
    from oracle import ContractViolation, check_solution

    spec, truth = momentsynth.random_instance(1, 12, 4, 972122757)
    assert check_solution("truth", spec, truth) <= 1e-12
    # Atoms lie in the unit disc, so the mass moment moves most: 2e-8 of the
    # scale there is twice the 1e-8 contract of one variable.
    scale = max(1.0, max(abs(v) for v in spec.values))
    weights = truth.weights.copy()
    weights[0] += 2e-8 * scale
    wrong = momentsynth.AtomicMeasure(truth.n, truth.atoms, weights, truth.scale)
    with pytest.raises(ContractViolation, match="above contract"):
        check_solution("moved weight", spec, wrong)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
