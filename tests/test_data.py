"""Container, bound-check, and normalization tests."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from dpirls.data import (
    _NORM_BLOCK_ELEMENTS,
    NORM_TOLERANCE,
    DataValidationError,
    Dataset,
    _row_norms,
    normalize_dataset,
    validate_dataset,
)


def test_boundary_row_norm_is_valid():
    # ||(0.6, 0.8)|| = 1 exactly: the bound is inclusive.
    ds = Dataset(X=np.array([[0.6, 0.8]]), y=np.array([1.0]))
    assert validate_dataset(ds) is ds


def test_overlong_row_rejected_with_row_index():
    X = np.array([[0.1, 0.2], [1.0, 1.0], [0.3, 0.0]])
    y = np.zeros(3)
    with pytest.raises(DataValidationError, match="row 1"):
        validate_dataset(Dataset(X=X, y=y))


def test_response_bound_rejected_with_index():
    ds = Dataset(X=np.zeros((3, 2)), y=np.array([0.0, 0.5, -1.5]))
    with pytest.raises(DataValidationError, match=r"y\[2\]"):
        validate_dataset(ds)


def test_all_zero_dataset_is_valid():
    validate_dataset(Dataset(X=np.zeros((3, 2)), y=np.zeros(3)))


def test_non_finite_entries_rejected():
    with pytest.raises(DataValidationError, match="non-finite"):
        validate_dataset(Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([0.0])))
    with pytest.raises(DataValidationError, match="non-finite"):
        validate_dataset(Dataset(X=np.array([[0.5, 0.0]]), y=np.array([np.inf])))


def test_shape_mismatches_rejected():
    with pytest.raises(DataValidationError, match="rows"):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(DataValidationError, match="2-dimensional"):
        Dataset(X=np.zeros(3), y=np.zeros(3))
    with pytest.raises(DataValidationError, match="at least one row"):
        Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
    with pytest.raises(DataValidationError, match="at least one column"):
        Dataset(X=np.zeros((2, 0)), y=np.zeros(2))


def test_arrays_are_read_only():
    ds = Dataset(X=np.array([[0.1, 0.2]]), y=np.array([0.3]))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.y[0] = 9.0
    # and the originals are copied, not aliased
    src = np.array([[0.1, 0.2]])
    ds2 = Dataset(X=src, y=np.array([0.3]))
    src[0, 0] = 7.0
    assert ds2.X[0, 0] == 0.1


def test_second_validation_makes_no_array_pass(monkeypatch):
    ds = Dataset(X=np.array([[0.6, 0.8], [0.1, 0.0]]), y=np.array([1.0, -0.5]))
    assert validate_dataset(ds) is ds

    def no_pass(*args, **kwargs):
        raise AssertionError("validate_dataset re-read the arrays")

    for name in ("isfinite", "abs"):
        monkeypatch.setattr(np, name, no_pass)
    monkeypatch.setattr(np.linalg, "norm", no_pass)
    assert validate_dataset(ds) is ds


def test_invalid_dataset_raises_on_every_call():
    ds = Dataset(X=np.array([[0.1, 0.2], [1.0, 1.0]]), y=np.zeros(2))
    for _ in range(3):
        with pytest.raises(DataValidationError, match="row 1"):
            validate_dataset(ds)


def test_datasets_never_share_a_validation():
    X = np.array([[0.6, 0.8]])
    good = validate_dataset(Dataset(X=X, y=np.array([0.5])))
    with pytest.raises(DataValidationError, match=r"y\[0\]"):
        validate_dataset(Dataset(X=X, y=np.array([2.0])))
    with pytest.raises(DataValidationError, match=r"y\[0\]"):
        validate_dataset(dataclasses.replace(good, y=np.array([2.0])))
    # Equal arrays make a new instance, and it is checked afresh.
    twin = Dataset(X=good.X, y=good.y)
    assert "_bounds_checked" not in vars(twin)
    assert validate_dataset(twin) is twin


def test_design_matrix_is_stored_column_major():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(7, 4))
    for X in (base, np.asfortranarray(base), base[::2, ::-1], base.T.T, base.tolist()):
        ds = Dataset(X=X, y=np.zeros(np.shape(X)[0]))
        assert ds.X.flags.f_contiguous
        assert not ds.X.flags.writeable
        np.testing.assert_array_equal(ds.X, np.asarray(X))


def test_dataset_adopts_only_a_frozen_owning_column_major_float64_array():
    rng = np.random.default_rng(8)
    frozen = np.asfortranarray(rng.normal(size=(6, 3)))
    frozen.setflags(write=False)
    y = np.zeros(6)
    y.setflags(write=False)
    ds = Dataset(X=frozen, y=y)
    assert ds.X is frozen and ds.y is y

    writeable = frozen.copy(order="F")
    view = frozen[:, :2]
    c_order = np.ascontiguousarray(frozen)
    c_order.setflags(write=False)
    as_float32 = frozen.astype(np.float32, order="F")
    as_float32.setflags(write=False)
    for X in (writeable, view, c_order, as_float32):
        ds = Dataset(X=X, y=np.zeros(6))
        assert ds.X is not X and not np.shares_memory(ds.X, X)
        assert ds.X.flags.f_contiguous and ds.X.flags.owndata and not ds.X.flags.writeable
        np.testing.assert_array_equal(ds.X, X)
    # A copied input may change afterwards; the dataset does not.
    ds = Dataset(X=writeable, y=np.zeros(6))
    before = ds.X.copy()
    writeable[0, 0] = 9.0
    np.testing.assert_array_equal(ds.X, before)


def test_normalize_never_adopts_the_callers_arrays():
    # Already normalized and frozen, so neither is scaled: still copied.
    X = np.asfortranarray([[0.6, 0.8], [0.0, 0.5]])
    y = np.array([1.0, -0.5])
    X.setflags(write=False)
    y.setflags(write=False)
    ds = normalize_dataset(X, y)
    assert not np.shares_memory(ds.X, X) and not np.shares_memory(ds.y, y)
    assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()


def test_row_norms_match_the_full_norm_bitwise():
    # Blocking must not change a single bit, whatever the layout, including
    # at the block boundaries; a one-row tail block (n = 2 step + 1) once
    # summed an F-ordered row pairwise instead of left to right.
    rng = np.random.default_rng(12)
    for d in (1, 3, 10, 100):
        step = _NORM_BLOCK_ELEMENTS // d
        for n in (1, 2, step - 1, step, step + 1, 2 * step + 1, 2 * step + 2):
            X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))
            for arr in (X, np.asfortranarray(X), X[::2], X[:, ::-1]):
                expected = np.linalg.norm(arr, axis=1)
                assert _row_norms(arr).tobytes() == expected.tobytes(), (d, n)


def test_bounds_check_at_the_norm_tolerance():
    # Rows at 1 + NORM_TOLERANCE and 1 or 2 ulp either side, placed past the
    # first block, are accepted or rejected exactly as one full
    # np.linalg.norm call decides, with the same message.
    limit = 1.0 + NORM_TOLERANCE
    candidates = [limit]
    for _ in range(2):
        candidates = [np.nextafter(candidates[0], 0.0), *candidates, np.nextafter(candidates[-1], 2.0)]
    for d, direction in ((1, [1.0]), (3, [0.48, 0.6, 0.64])):
        bad_row = _NORM_BLOCK_ELEMENTS // d + 2
        outcomes = []
        for t in candidates:
            X = np.full((bad_row + 3, d), 0.1 / d)
            X[bad_row] = np.asarray(direction) * t
            X[bad_row + 2] = X[bad_row]
            full = np.linalg.norm(X, axis=1)
            ds = Dataset(X=X, y=np.zeros(len(X)))
            if full[bad_row] <= limit:
                assert validate_dataset(ds) is ds
                outcomes.append("ok")
            else:
                with pytest.raises(DataValidationError) as exc:
                    validate_dataset(ds)
                assert str(exc.value) == (
                    f"row {bad_row} of X has L2 norm {full[bad_row]:.6g} > 1; "
                    "normalize_dataset establishes the bound"
                )
                outcomes.append("rejected")
        if d == 1:  # sqrt(t * t) == t, so the cut is exactly at the limit
            assert outcomes == ["ok"] * 3 + ["rejected"] * 2
        assert "ok" in outcomes and "rejected" in outcomes


def test_normalize_peak_memory_stays_near_one_copy():
    # Normalizing makes one column-major copy, scales it in place and
    # hands it to the Dataset, and row norms are taken block by block
    # (2.17x the size of X when the scaled X was copied again, 3.08x when
    # the norms were taken in one call).
    rng = np.random.default_rng(4)
    X = 3.0 * rng.normal(size=(20000, 50))
    y = 2.0 * rng.normal(size=20000)
    tracemalloc.start()
    try:
        normalize_dataset(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * X.nbytes, peak / X.nbytes


def test_validation_peak_memory_is_a_small_fraction_of_X():
    # Finiteness and row norms are checked over blocks of rows; one
    # isfinite(X) mask alone was 0.125x the size of X.
    rng = np.random.default_rng(5)
    ds = Dataset(X=rng.uniform(-1.0, 1.0, size=(20000, 50)) / 8.0, y=rng.uniform(-1.0, 1.0, 20000))
    tracemalloc.start()
    try:
        validate_dataset(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.115 * ds.X.nbytes, peak / ds.X.nbytes


def test_non_finite_value_in_a_late_block_names_its_row():
    rng = np.random.default_rng(6)
    n, d = 20000, 50
    assert n * d > 10 * _NORM_BLOCK_ELEMENTS
    X = rng.uniform(-1.0, 1.0, size=(n, d)) / 8.0
    y = rng.uniform(-1.0, 1.0, n)
    for row, bad in ((n - 2, np.nan), (17001, -np.inf)):
        X_bad = X.copy()
        X_bad[row, 7] = bad
        X_bad[-1, 0] = np.inf  # a later bad row is not the one reported
        with pytest.raises(DataValidationError, match=f"non-finite value at row {row}$"):
            validate_dataset(Dataset(X=X_bad, y=y))
        with pytest.raises(DataValidationError, match="^cannot normalize non-finite data$"):
            normalize_dataset(X_bad, y)
    # A finite row whose norm overflows is reported by its norm instead.
    X_big = X.copy()
    X_big[n - 3] = 1e200
    with np.errstate(over="ignore"), pytest.raises(
        DataValidationError, match=f"^row {n - 3} of X has L2 norm inf > 1"
    ):
        validate_dataset(Dataset(X=X_big, y=y))


def test_normalize_known_values():
    # max row norm 5 -> rows scaled by 1/5; max |y| = 4 -> y scaled by 1/4
    ds = normalize_dataset(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([2.0, -4.0]))
    np.testing.assert_allclose(ds.X, [[0.6, 0.8], [0.0, 0.2]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ds.y, [0.5, -1.0], rtol=0, atol=0)


def test_normalize_is_bitwise_idempotent():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(50, 4)) * 3.0
    y = rng.normal(size=50) * 7.0
    once = normalize_dataset(X, y)
    twice = normalize_dataset(once.X, once.y)
    assert np.array_equal(once.X, twice.X)
    assert np.array_equal(once.y, twice.y)


def test_normalize_reaches_unit_maximum():
    rng = np.random.default_rng(3)
    for i in range(20):
        X = rng.normal(size=(30, 3)) * rng.uniform(0.1, 50.0)
        y = rng.normal(size=30) * rng.uniform(0.1, 50.0)
        ds = normalize_dataset(X, y)
        assert abs(np.linalg.norm(ds.X, axis=1).max() - 1.0) < 1e-12
        assert abs(np.abs(ds.y).max() - 1.0) < 1e-12
        validate_dataset(ds)


@pytest.mark.parametrize("v", [1e-170, 3e-162, 1e-160])
def test_normalize_scales_rows_whose_squares_underflow(v):
    # Squared, these entries underflow: 1e-170 read as all-zero X, 3e-162
    # gave a largest row norm of 0.954, and 1e-160 one above the bound.
    ds = normalize_dataset([[v, v], [v / 2, 0.0]], [1.0, 0.5])
    norms = np.linalg.norm(ds.X, axis=1)
    assert abs(norms.max() - 1.0) <= 4 * np.finfo(float).eps
    np.testing.assert_allclose(ds.X, [[2**-0.5, 2**-0.5], [2**-1.5, 0.0]], rtol=1e-15)
    np.testing.assert_array_equal(ds.y, [1.0, 0.5])


def test_normalize_leaves_zero_data_alone():
    ds = normalize_dataset(np.zeros((4, 2)), np.zeros(4))
    assert np.array_equal(ds.X, np.zeros((4, 2)))
    assert np.array_equal(ds.y, np.zeros(4))


def test_normalize_rejects_non_finite():
    with pytest.raises(DataValidationError, match="non-finite"):
        normalize_dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))


def test_normalize_refuses_a_row_norm_that_overflows():
    # Dividing by an infinite max_norm would zero all of X.  The refusal
    # names the first such row and raises no overflow warning on the way.
    match = "^row {} of X has an L2 norm that overflows float64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match=match.format(0)):
            normalize_dataset([[1e200, 1.0], [0.5, 0.25]], [1.0, 2.0])
        X = np.full((2000, 3), 0.5)
        X[[1500, 1700], 2] = -1e160
        with pytest.raises(DataValidationError, match=match.format(1500)):
            normalize_dataset(X, np.ones(2000))
        # A large row whose norm stays finite still scales, exactly here.
        big = 2.0**500
        ds = normalize_dataset([[big, 0.0], [0.5, 0.25]], [1.0, 2.0])
    np.testing.assert_array_equal(ds.X, [[1.0, 0.0], [0.5 / big, 0.25 / big]])
