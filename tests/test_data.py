"""Container, bound-check, and clipping tests."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from _oracles import audit_epsilon, scale_to_unit_max

import dpirls.data as data_module
from dpirls.accountant import PrivacyBudget, Regime
from dpirls.data import (
    _NORM_BLOCK_ELEMENTS,
    NORM_TOLERANCE,
    DataValidationError,
    Dataset,
    _all_finite,
    _as_symmetric,
    _row_norms,
    _row_spans,
    clip_dataset,
    validate_dataset,
)
from dpirls.mechanisms import wishart_perturb
from dpirls.solver import IRLSConfig, MomentSolveError, run_private_irls, solve_step
from dpirls.synthetic import SyntheticSpec, generate


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


def _layouts(m):
    # m and views of its entries in other memory layouts.  The strided
    # view sits in a NaN-filled buffer, so a scan that read past it fails.
    big = np.full((2 * m.shape[0], 3 * m.shape[1]), np.nan)
    big[::2, ::3] = m
    f = np.asfortranarray(m)
    return (m, f, big[::2, ::3], m.T, f.T, m[:, 1], m.ravel())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308])
def test_all_finite_is_isfinite_all(bad):
    # The byte scan gives the reduction's answer on every layout, with one
    # value put at the first, a middle and the last entry (subnormals and
    # zeros are finite too), and on empty and 0-d arrays.
    for a in (np.empty(0), np.empty((0, 3)), np.array(1.5), np.array(bad)):
        assert _all_finite(a) == bool(np.isfinite(a).all()), a
    base = np.random.default_rng(3).normal(size=(6, 5))
    for a in _layouts(base):
        assert _all_finite(a)
    for pos in (0, base.size // 2 + 1, base.size - 1):
        m = base.copy()
        m.flat[pos] = bad
        for a in _layouts(m):
            assert _all_finite(a) == bool(np.isfinite(a).all()), (pos, a)


@pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
def test_symmetry_check_matches_the_tolerance_test(layout):
    # The one guard for B, called directly and through both of its callers,
    # the Wishart release and the solve.  A B that passes it may still be
    # indefinite, which the solve refuses with its own error.
    def guarded(B):
        B = np.asarray(B, dtype=np.float64)
        B = {
            "C": B,
            "F": np.asfortranarray(B),
            "transposed": B.T,
            "strided": np.repeat(np.repeat(B, 2, axis=0), 3, axis=1)[::2, ::3],
        }[layout]
        return (
            lambda: _as_symmetric("B", B),
            lambda: wishart_perturb(B, 0.5, 5.0, 100, np.random.default_rng(0)),
            lambda: solve_step(np.ones(B.shape[0]), B),
        )

    def check(B):
        helper, release, solve = guarded(B)
        helper()
        release()
        try:
            solve()
        except MomentSolveError:
            pass

    def refused(B, message):
        for call in guarded(B):
            with pytest.raises(ValueError, match=message):
                call()

    rng = np.random.default_rng(4)
    S = rng.normal(size=(5, 5))
    check(S + S.T)
    # A +0/-0 mismatch is equal as a number, and asymmetry up to 1e-10 is
    # the Gram's rounding, on either side of the diagonal.
    check([[1.0, 0.0, 2.0], [-0.0, 1.0, 0.0], [2.0, -0.0, 1.0]])
    check([[2.0, 1e-10], [0.0, 2.0]])
    check([[2.0, 0.0], [-1e-10, 2.0]])
    message = r"^B must be symmetric; max \|B - B\^T\| = 1e-09$"
    for B in ([[2.0, 1e-9], [0.0, 2.0]], [[2.0, 0.0], [1e-9, 2.0]]):
        refused(B, message)
    # A NaN B equals its transpose byte for byte, so it is refused as
    # non-finite before the symmetry test could pass it.
    B = np.array([[1.0, np.nan], [np.nan, 1.0]])
    assert B.tobytes() == B.T.tobytes()
    refused(B, "^B must be finite$")


def test_shape_mismatches_rejected():
    with pytest.raises(DataValidationError, match="rows"):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(DataValidationError, match="2-dimensional"):
        Dataset(X=np.zeros(3), y=np.zeros(3))
    with pytest.raises(DataValidationError, match="at least one row"):
        Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
    with pytest.raises(DataValidationError, match="at least one column"):
        Dataset(X=np.zeros((2, 0)), y=np.zeros(2))


def test_normalize_refuses_what_the_dataset_refuses():
    # One shape rule for Dataset and clip_dataset (which normalizes each
    # row whose norm exceeds 1), checked before any norm is taken.
    for X, y, match in (
        (np.zeros((3, 2)), np.zeros(4), "^X has 3 rows but y has 4 entries$"),
        (np.zeros(3), np.zeros(3), "^X must be 2-dimensional"),
        (np.zeros((3, 2)), np.zeros((3, 1)), "^y must be 1-dimensional"),
        (np.zeros((0, 2)), np.zeros(0), "^dataset must contain at least one row$"),
        (np.zeros((2, 0)), np.zeros(2), "^X must have at least one column$"),
    ):
        for build in (Dataset, clip_dataset):
            with pytest.raises(DataValidationError, match=match):
                build(X, y)


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


def test_datasets_compare_and_hash_by_identity():
    X, y = np.array([[0.6, 0.8], [0.1, 0.0]]), np.array([1.0, -0.5])
    ds, twin = Dataset(X, y), Dataset(X, y)
    assert ds == ds and ds != twin
    assert ds in [twin, ds] and twin not in [ds]
    assert len({ds, twin, ds}) == 2
    # The arrays stay out of the repr, which gives the shape only.
    assert repr(ds) == "Dataset(n=2, d=2)"


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


@pytest.mark.parametrize("d, order, other", [(30, "F", "C"), (31, "C", "F")])
def test_storage_order_of_X_follows_d(d, order, other, monkeypatch):
    # Column-major up to d = 30, row-major above, for every way a dataset
    # is made.  At d = 1 both orders are one, so d = 30 and 31 pin the cut.
    def stored_so(X):
        return X.flags[f"{order}_CONTIGUOUS"] and not X.flags[f"{other}_CONTIGUOUS"]

    # Whether each Dataset made since the last reset copied its X.
    copies = []
    freeze = data_module._freeze

    def recording_freeze(a, *args):
        out = freeze(a, *args)
        if a.ndim == 2:
            copies.append(out is not a)
        return out

    monkeypatch.setattr(data_module, "_freeze", recording_freeze)

    rng = np.random.default_rng(40 + d)
    base = rng.normal(size=(50, d))
    y = rng.normal(size=50)
    # An array already in the dataset's order is adopted without a copy...
    own = np.array(base, order=order)
    own.setflags(write=False)
    assert Dataset(X=own, y=y).X is own
    # ...and one in the other order is copied into it.
    theirs = np.array(base, order=other)
    theirs.setflags(write=False)
    for X in (theirs, base.tolist()):
        ds = Dataset(X=X, y=y)
        assert not np.shares_memory(ds.X, theirs)
        assert stored_so(ds.X) and ds.X.flags.owndata and not ds.X.flags.writeable
        np.testing.assert_array_equal(ds.X, base)
    # clip_dataset clips its one private copy in that order, which the
    # Dataset adopts.
    copies.clear()
    for X in (own, theirs, base.tolist()):
        ds = clip_dataset(X, y)
        assert stored_so(ds.X) and ds.X.flags.owndata and not np.shares_memory(ds.X, X)
    assert copies == [False] * 3
    # generate fills the train and test arrays in that order, and each
    # Dataset adopts its array.
    copies.clear()
    split = generate(SyntheticSpec(n=300, d=d))
    for part in (split.train, split.test):
        assert stored_so(part.X) and part.X.flags.owndata
    assert copies == [False, False]


def test_normalize_never_adopts_the_callers_arrays():
    # Within the bounds and frozen, so nothing is clipped: still copied.
    X = np.asfortranarray([[0.6, 0.8], [0.0, 0.5]])
    y = np.array([1.0, -0.5])
    X.setflags(write=False)
    y.setflags(write=False)
    ds = clip_dataset(X, y)
    assert not np.shares_memory(ds.X, X) and not np.shares_memory(ds.y, y)
    assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()


def test_row_norms_match_the_full_norm_bitwise():
    # Blocking must not change a single bit, whatever the layout, including
    # at the block boundaries; a one-row tail block (n = 2 step + 1) once
    # summed an F-ordered row pairwise instead of left to right.
    rng = np.random.default_rng(12)
    for d in (1, 3, 10, 100):
        step = _row_spans(_NORM_BLOCK_ELEMENTS + 2, d)[0][1]
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
                    "clip_dataset establishes the bound"
                )
                outcomes.append("rejected")
        if d == 1:  # sqrt(t * t) == t, so the cut is exactly at the limit
            assert outcomes == ["ok"] * 3 + ["rejected"] * 2
        assert "ok" in outcomes and "rejected" in outcomes


def test_normalize_peak_memory_stays_near_one_copy():
    # Clipping makes one column-major copy, divides its rows in place and
    # hands it to the Dataset, and row norms are taken block by block
    # (2.17x the size of X when the scaled X was copied again, 3.08x when
    # the norms were taken in one call).
    rng = np.random.default_rng(4)
    X = 3.0 * rng.normal(size=(20000, 50))
    y = 2.0 * rng.normal(size=20000)
    tracemalloc.start()
    try:
        clip_dataset(X, y)
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
        with pytest.raises(DataValidationError, match=f"^X contains a non-finite value at row {row}$"):
            clip_dataset(X_bad, y)
    # A finite row whose norm overflows is reported as that overflow, by
    # both entry points, without numpy's overflow warning (an error under
    # this suite), and after every non-finite entry of X and of y.
    overflow = f"^row {n - 3} of X has an L2 norm that overflows float64; scale X down before clipping$"
    X_big = X.copy()
    X_big[n - 3] = 1e200
    X_nan = X_big.copy()
    X_nan[n - 2, 7] = np.nan
    y_nan = y.copy()
    y_nan[17001] = np.nan
    X_over = X_big.copy()
    X_over[5] = 2.0  # an ordinary row over the bound, before the overflow
    for X_case, y_case, match in (
        (X_big, y, overflow),
        (X_nan, y, f"^X contains a non-finite value at row {n - 2}$"),
        (X_nan, y_nan, f"^X contains a non-finite value at row {n - 2}$"),
        (X_big, y_nan, "^y contains a non-finite value at row 17001$"),
        (X_over, y, overflow),
    ):
        for check in (lambda: validate_dataset(Dataset(X=X_case, y=y_case)),
                      lambda: clip_dataset(X_case, y_case)):
            with pytest.raises(DataValidationError, match=match):
                check()


def test_normalize_known_values():
    # The row of norm 5 is divided by 5, the row of norm 1 is kept, and y
    # is clipped to [-1, 1].
    ds = clip_dataset(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([2.0, -4.0]))
    np.testing.assert_array_equal(ds.X, [[0.6, 0.8], [0.0, 1.0]])
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])


def test_normalize_leaves_zero_data_alone():
    # Zero rows, -0.0 included, are within the bound and keep their bytes.
    X = np.zeros((4, 2))
    X[1, 0] = X[3, 1] = -0.0
    y = np.array([0.0, -0.0, 0.0, -0.0])
    ds = clip_dataset(X, y)
    assert ds.X.tobytes() == np.asfortranarray(X).tobytes()
    assert ds.y.tobytes() == y.tobytes()


def _raw_pair():
    # Raw data of the quick start's kind at n = 100, d = 1, some rows and
    # responses beyond the bounds, and a neighbour that replaces row 0's
    # x = 50 by x = -1: clipped, +1 against -1, as far apart as two rows
    # within the bound can be.
    gen = np.random.default_rng(0)
    X = gen.uniform(-2.0, 2.0, (100, 1))
    y = X[:, 0] / 2 + gen.normal(0.0, 0.1, 100)
    X[0, 0] = 50.0
    neighbour = X.copy()
    neighbour[0, 0] = -1.0
    return (X, y), (neighbour, y)


def test_clip_changes_only_the_row_that_changed():
    # Scaling by the data's maxima changes every row of the neighbour (50
    # against 1.99 for the largest norm); the clip changes row 0 alone.
    pair = _raw_pair()
    scaled = [scale_to_unit_max(X, y)[0] for X, y in pair]
    assert (scaled[0] != scaled[1]).all()
    a, b = (clip_dataset(X, y) for X, y in pair)
    assert a.X[0, 0] == 1.0 and b.X[0, 0] == -1.0
    assert a.X[1:].tobytes() == b.X[1:].tobytes() and a.y.tobytes() == b.y.tobytes()
    # Other raw rows beyond the bound were clipped too, alike on both sides.
    assert (np.abs(a.X[1:]) < np.abs(pair[0][0][1:])).any()


def test_clip_keeps_in_bound_rows_and_responses_bit_for_bit():
    # Rows of norm at most 1 (a unit row, tiny and subnormal entries whose
    # squares underflow, -0.0) and responses within [-1, 1] come back with
    # their bytes; a longer row keeps its direction at norm 1, up to
    # NORM_TOLERANCE, and a response beyond 1 is clipped.
    for d in (1, 2, 3, 10, 31, 100):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(12, d))
        X /= np.linalg.norm(X, axis=1)[:, None]
        scales = [3.0, 1.0, 0.5, 1e-170, 5e-324, -0.0, 1e150, 1 + 1e-15, 7.0, 2.0, 0.99, 0.0]
        X *= np.array(scales)[:, None]
        y = np.array([0.5, -1.0, 1.0, -0.0, 2.0, -7.0, 1e-300, 0.25, 1 + 2**-52, -3.0, 0.0, 0.75])
        ds = clip_dataset(X, y)
        norms = np.linalg.norm(X, axis=1)
        inside = norms <= 1.0
        # The unit row (row 1) may round to either side of 1.
        assert np.array_equal(np.delete(inside, 1), np.delete(np.array(scales) < 1.0, 1)), d
        for i in np.flatnonzero(inside):
            assert ds.X[i].tobytes() == X[i].tobytes(), (d, i)
        out = ~inside
        clipped = np.linalg.norm(ds.X[out], axis=1)
        assert np.abs(clipped - 1.0).max() <= NORM_TOLERANCE, d
        np.testing.assert_allclose(ds.X[out], X[out] / norms[out][:, None], rtol=1e-15, atol=0)
        np.testing.assert_array_equal(ds.y, np.clip(y, -1.0, 1.0))
        assert ds.y[[0, 1, 2, 3, 6, 7, 10, 11]].tobytes() == y[[0, 1, 2, 3, 6, 7, 10, 11]].tobytes()


def test_quick_start_pipeline_passes_an_epsilon_audit():
    # The README's pipeline, raw data through clip_dataset into a private
    # solve, audited on the output theta for the neighbouring raw datasets
    # of _raw_pair at J = 1 and eps = 1 (basic composition, Laplace).
    # Scaling by the data's maxima instead read eps >= 3.9 on these draws.
    pytest.importorskip("scipy.stats")
    config = IRLSConfig(iterations=1, weight_cap=5.0)
    budget = PrivacyBudget(epsilon=1.0, regime=Regime.CONVENTIONAL)
    draws = []
    for side, (X, y) in enumerate(_raw_pair()):
        ds, gen = clip_dataset(X, y), np.random.default_rng([7, side])
        draws.append([run_private_irls(ds, config, budget, "laplace", gen)[0][0] for _ in range(2000)])
    assert audit_epsilon(*draws) <= budget.epsilon


def test_normalize_rejects_non_finite():
    with pytest.raises(DataValidationError, match="non-finite"):
        clip_dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))
    with pytest.raises(DataValidationError, match="^y contains a non-finite value at row 2$"):
        clip_dataset(np.full((4, 2), 0.5), np.array([1.0, -3.0, np.nan, np.inf]))


def test_normalize_refuses_a_row_norm_that_overflows():
    # Dividing a row by its infinite norm would zero it.  The refusal
    # names the first such row and raises no overflow warning on the way.
    match = "^row {} of X has an L2 norm that overflows float64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match=match.format(0)):
            clip_dataset([[1e200, 1.0], [0.5, 0.25]], [1.0, 2.0])
        X = np.full((2000, 3), 0.5)
        X[[1500, 1700], 2] = -1e160
        with pytest.raises(DataValidationError, match=match.format(1500)):
            clip_dataset(X, np.ones(2000))
        # A large row whose norm stays finite is still clipped, exactly here.
        ds = clip_dataset([[2.0**500, 0.0], [0.5, 0.25]], [1.0, 2.0])
    np.testing.assert_array_equal(ds.X, [[1.0, 0.0], [0.5, 0.25]])
