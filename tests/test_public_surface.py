"""The names ``dpirls`` exports are exactly the names it binds."""

import os
import subprocess
import sys
import types
from pathlib import Path

import dpirls

SRC = Path(__file__).resolve().parent.parent / "src"

# Deleted outright, or kept in their modules but no longer exported.
GONE = (
    "load_dataset_csv",
    "save_dataset_csv",
    "serialize_trace",
    "LaplaceNoiseSpec",
    "GaussianNoiseSpec",
    "WishartNoiseSpec",
    "EvalResult",
    "IRLSState",
    "NoiseRelease",
    "StepSolution",
    "MomentPair",
    "estimate_residual_variance",
    "loglik_per_test_point",
    "SeededRng",
    "Mechanism",
    "cdp_per_release",
    "conventional_per_release",
    "advanced_per_release",
    "run_cell",
    # The README grid harness: importable from dpirls.experiment and
    # dpirls.charts, not from the package.
    "ExperimentGrid",
    "MECHANISM_SPECS",
    "ResultRow",
    "SummaryRow",
    "run_grid",
    "aggregate",
    "emit_csv",
    "emit_svg_chart",
    # The loop's layers and the sensitivities behind the noise scales:
    # importable from dpirls.solver and dpirls.mechanisms.
    "compute_moments",
    "residuals",
    "solve_step",
    "weights_from_residuals",
    "l1_sensitivity_A",
    "l2_sensitivity_A",
    # The README grid's synthetic problem: importable from dpirls.synthetic.
    "SyntheticSpec",
    "SplitDataset",
    "generate",
    "evaluate_fit",
)


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(set(dpirls.__all__)) == len(dpirls.__all__)
    for name in dpirls.__all__:
        assert hasattr(dpirls, name), name


def test_all_equals_the_public_non_module_attributes():
    public = {
        name
        for name, value in vars(dpirls).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(dpirls.__all__)


def test_removed_names_are_not_reachable_from_the_package():
    assert [name for name in GONE if hasattr(dpirls, name)] == []


def test_import_loads_no_harness_module():
    # A fresh interpreter, since this one has the harness loaded by other tests.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    absent = ("dpirls.synthetic", "dpirls.experiment", "dpirls.charts", "dpirls.cli", "csv")
    code = f"import sys, dpirls; print([m for m in {absent!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
