"""The names ``dpirls`` exports are exactly the names it binds."""

import types

import dpirls

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
