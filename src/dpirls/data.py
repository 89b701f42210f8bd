"""Dataset container, bound checks, and clipping.

Every sensitivity bound in :mod:`dpirls.mechanisms` assumes the row norms
of the design matrix are at most 1 and the responses lie in [-1, 1].
:func:`clip_dataset` establishes those bounds one row at a time, so a
change to one raw row changes one clipped row, as the sensitivities
assume.  The private solver calls :func:`validate_dataset` to verify
them before calibrating any noise.  The check
runs once per :class:`Dataset`; later calls on the same instance reuse
its result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Slack for the norm bounds: rounding in a row norm of a legitimately
# bounded or clipped dataset is a few ulp, far below this.
NORM_TOLERANCE = 1e-9

# A Gram matrix assembled from real data is symmetric to a few ulp; a
# larger asymmetry means the caller is not passing a moment matrix.
_SYMMETRY_TOLERANCE = 1e-10

# _row_spans cuts X into blocks of about this many entries, so the row
# norms' temporaries stay at 512 KiB whatever n is while d <= 1024.
_NORM_BLOCK_ELEMENTS = 1 << 16


class DataValidationError(ValueError):
    """Raised when a dataset violates the documented bounds."""


# Storage order of Dataset.X, by d: the one cut-off that also picks
# compute_moments' Gram form (see solver._weighted_gram).  Up to this many
# columns X is column-major, so each pass over it (X @ theta, X^T v, the
# grid's one-gemm moments) streams through feature columns.  Above it X is
# row-major: the capped-weight update gathers each row below the cap as
# one contiguous row, where column-major X made it pick k d single doubles.
_GEMM_MAX_D = 30


def _x_order(d: int) -> str:
    return "F" if d <= _GEMM_MAX_D else "C"


def _freeze(a: np.ndarray, order: str) -> np.ndarray:
    # An array that is already float64, contiguous in ``order`` (for a
    # vector C and F order are one), read-only and owning its buffer is
    # adopted as it is; anything else is copied into that order.
    flags = a.flags
    contiguous = flags.f_contiguous if order == "F" else flags.c_contiguous
    if a.dtype == np.float64 and contiguous and flags.owndata and not flags.writeable:
        return a
    out = np.array(a, dtype=np.float64, order=order, copy=True)
    out.setflags(write=False)
    return out


# Argument checks shared by every module, so each rule and its message
# is stated once.

def _check_positive_finite(name: str, value: float) -> float:
    # Returns the Python float it checked, so that no sensitivity, noise
    # scale or split follows a numpy scalar's own arithmetic (numpy 2 keeps
    # np.float32(x) * 2.0 in float32).  Comparing value first refuses a
    # str, which float() would parse; a bool is refused, as _check_int
    # refuses it, rather than read as 1.0.
    if isinstance(value, (bool, np.bool_)) or not (value > 0.0 and 0.0 < (x := float(value)) < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return x


def _check_weight_cap(weight_cap: float) -> float:
    # The clamp's floor 1/weight_cap must be finite too, or every weight
    # would be 1/inf = 0; every release's calibration refuses such caps too.
    cap = _check_positive_finite("weight_cap", weight_cap)
    if math.isinf(1.0 / cap):
        raise ValueError(f"weight_cap must have a finite reciprocal, got {weight_cap!r}")
    return cap


_INT_BOUNDS = {0: "a non-negative integer", 1: "a positive integer"}


def _check_int(name: str, value: int, low: int = 1) -> int:
    # Returns the Python int it checked, so that a numpy integer's count
    # neither overflows int64 nor turns a split or scale into a numpy float.
    if type(value) is int and value >= low:
        return value
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        bound = _INT_BOUNDS.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _check_probability(name: str, value: float) -> float:
    # The Python float it checked, as in _check_positive_finite.
    if not (0.0 < value and 0.0 < (x := float(value)) < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return x


# Moment checks for the releases and solve_step, which refuse an empty
# moment as well as a non-finite one: _as_vector for A, _as_symmetric for
# B.  Both run on every IRLS step, mostly on d- and d*d-entry arrays,
# where a ufunc reduction's set-up costs more than the test: each first
# scans bytes (0.5 and 0.4 us against 0.9 and 1.5 us at d = 10) and
# reduces with the ufuncs only where it must.

def _all_finite(a: np.ndarray) -> bool:
    # isfinite's bool bytes are 0 or 1, and bytes.__contains__ is a memchr.
    return b"\0" not in np.isfinite(a).tobytes()


def _as_vector(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={a.ndim}")
    if not a.shape[0]:
        raise ValueError(f"{name} must not be empty")
    if not _all_finite(a):
        raise ValueError(f"{name} must be finite")
    return a


def _as_theta(theta: np.ndarray, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != d:
        raise ValueError(f"theta must have shape ({d},), got {theta.shape}")
    return theta


def _as_symmetric(name: str, B: np.ndarray) -> np.ndarray:
    # A square, non-empty, finite B, then symmetric to _SYMMETRY_TOLERANCE.
    # Finiteness comes first: the bytes of a NaN B can equal its
    # transpose's.  B equal to B^T byte for byte is the common case (every
    # moment product and the Wishart noise are symmetric bit for bit).
    # Otherwise the tolerance test decides, which also passes a +0/-0
    # mismatch; an asymmetry too large for float64 reads inf there and is
    # refused without an overflow warning.
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"{name} must be square, got shape {B.shape}")
    if not B.shape[0]:
        raise ValueError(f"{name} must not be empty")
    if not _all_finite(B):
        raise ValueError(f"{name} must be finite")
    if B.tobytes() != B.T.tobytes():
        with np.errstate(over="ignore"):
            asym = float(np.maximum.reduce(np.abs(B - B.T), axis=None))
        if asym > _SYMMETRY_TOLERANCE:
            raise ValueError(f"{name} must be symmetric; max |{name} - {name}^T| = {asym:.3g}")
    return B


def _row_spans(n: int, d: int) -> list[tuple[int, int]]:
    # The row blocks of _row_norms and synthetic.generate, counted from row
    # 0: a multiple of 64 rows high, and 64 rows (over 2^16 entries) once
    # d > 1024.  A one-row remainder joins the block before it, as numpy
    # reduces a (1, d) block along another path, with other rounding.
    step = max(64, _NORM_BLOCK_ELEMENTS // d // 64 * 64)
    edges = [*range(0, max(n - 1, 1), step), n]
    return list(zip(edges, edges[1:]))


def _row_norms(X: np.ndarray) -> np.ndarray:
    # np.linalg.norm(X, axis=1) by its own formula, over _row_spans' blocks:
    # each row is reduced as the full call on the same layout reduces it,
    # so the bits are np.linalg.norm's for that X, while the n x d squares
    # become one block's worth.  C and F order differ from d = 8 on, as
    # numpy sums a C row pairwise and F rows left to right (at n = 5,000,
    # about 900 rows at d = 10, by at most 6e-16 relative).  The norm of a
    # huge but finite row overflows to inf without a warning.
    out = np.empty(X.shape[0])
    with np.errstate(over="ignore"):
        for start, stop in _row_spans(*X.shape):
            np.sqrt(np.add.reduce(np.square(X[start:stop]), axis=1), out=out[start:stop])
    return out


def _check_shapes(X: np.ndarray, y: np.ndarray) -> None:
    # Dataset's and clip_dataset's rule: X (n, d), y (n,), n, d >= 1.
    if X.ndim != 2:
        raise DataValidationError(f"X must be 2-dimensional, got ndim={X.ndim}")
    if y.ndim != 1:
        raise DataValidationError(f"y must be 1-dimensional, got ndim={y.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DataValidationError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] < 1:
        raise DataValidationError("dataset must contain at least one row")
    if X.shape[1] < 1:
        raise DataValidationError("X must have at least one column")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix ``X`` of shape (n, d) and response vector ``y`` of shape (n,).

    Construction checks shapes only.  Use :func:`validate_dataset` to
    enforce the norm bounds, or :func:`clip_dataset` to establish
    them.  The stored arrays are read-only, and the storage order of
    ``X`` follows d, whatever the input's order.  Up to d = 30 ``X`` is
    column-major (Fortran order): every pass the solver makes over it
    (``X @ theta``, ``X.T @ v``, and in ``compute_moments`` the scaling of
    a block of rows ``X.T[:, a:b]`` by their weights and the gather of the
    rows below the weight cap along ``X.T``) then streams through each
    feature column contiguously instead of running a d-element inner loop
    per row.  Above d = 30 ``X`` is row-major (C order), so that the
    gather of the rows below the weight cap copies whole contiguous rows
    (d = 30 is also where ``compute_moments`` switches from its one-gemm
    Gram form to ``syrk``).  ``X^T X`` and ``X^T y`` are memoised per
    instance on first use (see ``_unit_moments``), and so are the solver's
    first IRLS step (see ``_first_step``) and a passed bounds check (see
    ``_bounds_checked``); all are sound because the arrays are read-only.
    Datasets compare and hash by identity, as those memos assume.

    An input that is already float64, contiguous in that order, read-only
    and owns its buffer is adopted as it is, not copied; whoever passes
    one hands it over and must not set it writeable again.  Every other
    input (a writeable array, a view, the other order, another dtype, a
    list) is copied into that order, so later changes to the caller's
    array do not reach the dataset.
    """

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        _check_shapes(X, y)
        object.__setattr__(self, "X", _freeze(X, _x_order(X.shape[1])))
        object.__setattr__(self, "y", _freeze(y, "C"))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @functools.cached_property
    def _unit_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """X^T X (one syrk) and X^T y, computed on first use and kept.

        :func:`dpirls.solver.compute_moments` builds its capped-weight
        update from these.  ``X`` and ``y`` are read-only and private to
        the dataset from construction on, so the memo cannot go stale; it
        lives in this instance's ``__dict__``, so no two datasets share one.
        """
        XtX = self.X.T @ self.X
        Xty = self.X.T @ self.y
        XtX.setflags(write=False)
        Xty.setflags(write=False)
        return XtX, Xty

    @functools.cached_property
    def _first_step(self) -> list:
        """The solver's first IRLS step on this dataset: one slot, ``[None]`` until a solve fills it.

        Every solve starts at theta = 0, where the clamped weights
        1 / max(1/weight_cap, |y_i|) and the exact moments A and B depend
        on X, y and the cap alone.  The first solve that misses this memo
        computes them and stores ``(weight_cap, weights, MomentPair)`` in the
        slot with read-only arrays, replacing the entry for any other cap;
        every later solve at that cap, exact or private, starts from it (a
        private one still adds its own noise to these moments).  It cannot
        go stale for the same reason as ``_unit_moments``: X and y never
        change, and neither does the step they determine at a given cap.
        """
        return [None]

    @functools.cached_property
    def _bounds_checked(self) -> bool:
        """True once :func:`validate_dataset`'s check has passed on this instance.

        Sound for the same reason as ``_unit_moments``.  A failing check
        raises, and ``cached_property`` stores nothing then, so an invalid
        dataset raises on every call.
        """
        _check_bounds(self)
        return True

    def __repr__(self) -> str:  # arrays are too noisy for the default repr
        return f"Dataset(n={self.n}, d={self.d})"


def validate_dataset(dataset: Dataset) -> Dataset:
    """Check the privacy-relevant bounds and return the dataset unchanged.

    Parameters
    ----------
    dataset : Dataset
        Candidate dataset.

    Returns
    -------
    Dataset
        The same object, if every row satisfies ``||x_i||_2 <= 1`` and
        ``|y_i| <= 1`` up to ``NORM_TOLERANCE``.

    Raises
    ------
    DataValidationError
        For the first of these that holds, naming the first offending row
        ``r``: a NaN or an infinity in ``X`` ("X contains a non-finite
        value at row r"), then in ``y`` ("y contains a non-finite value at
        row r"); a finite row of ``X`` whose L2 norm overflows float64
        ("row r of X has an L2 norm that overflows float64; scale X down
        before clipping"); a row norm above 1, then a ``|y_i|`` above
        1.  :func:`clip_dataset` and
        :func:`dpirls.solver.run_exact_irls` refuse the first three with
        the same messages.
    """
    dataset._bounds_checked  # runs the check on first access only
    return dataset


def _check_finite(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The one gate for raw arrays.  It refuses, naming the first offending
    # row, a NaN or an infinity in X, then one in y, then a finite row of X
    # whose L2 norm overflows float64, and otherwise returns X's row norms,
    # then all finite.  A finite norm means a finite row, so only the rows
    # whose norm is not finite are searched, a block at a time.
    norms = _row_norms(X)
    if _all_finite(norms) and _all_finite(y):
        return norms
    rows = np.flatnonzero(~np.isfinite(norms))
    for start, stop in _row_spans(len(rows), X.shape[1]):
        bad = ~np.logical_and.reduce(np.isfinite(X[rows[start:stop]]), axis=1)
        if np.logical_or.reduce(bad):
            raise DataValidationError(
                f"X contains a non-finite value at row {rows[start + np.argmax(bad)]}"
            )
    if not _all_finite(y):
        bad = int(np.argwhere(~np.isfinite(y))[0, 0])
        raise DataValidationError(f"y contains a non-finite value at row {bad}")
    raise DataValidationError(
        f"row {rows[0]} of X has an L2 norm that overflows float64; "
        "scale X down before clipping"
    )


def _check_bounds(dataset: Dataset) -> None:
    norms = _check_finite(dataset.X, dataset.y)
    over = norms > 1.0 + NORM_TOLERANCE
    if np.logical_or.reduce(over, axis=None):
        bad = int(np.argmax(over))
        raise DataValidationError(
            f"row {bad} of X has L2 norm {norms[bad]:.6g} > 1; "
            "clip_dataset establishes the bound"
        )
    over_y = np.abs(dataset.y) > 1.0 + NORM_TOLERANCE
    if np.logical_or.reduce(over_y, axis=None):
        bad = int(np.argmax(over_y))
        raise DataValidationError(
            f"y[{bad}] = {dataset.y[bad]:.6g} lies outside [-1, 1]; "
            "clip_dataset establishes the bound"
        )


def clip_dataset(X: np.ndarray, y: np.ndarray) -> Dataset:
    """Bound each row of raw data on its own: the dataset the private solver accepts.

    Each row ``x_i`` is divided by ``max(1, ||x_i||_2)`` and each ``y_i``
    is clipped to [-1, 1], the clipping step of DP-SGD (Abadi et al.,
    CCS 2016).  A row of norm at most 1 and a response within [-1, 1]
    keep their bytes.  The map is row-local: a row's clipped value
    depends on that row alone, so two raw datasets that differ in one row
    give clipped datasets that differ in that row only, and the guarantee
    of a private run on the result covers the caller's raw rows.  A
    clipped row's computed norm may sit an ulp or two above 1;
    ``NORM_TOLERANCE`` passes it.

    After the shape checks :class:`Dataset` makes, the input is refused
    with :class:`DataValidationError` by the same rules and messages as
    :func:`validate_dataset`'s first three, naming the first offending
    row ``r``: a NaN or an infinity in ``X`` ("X contains a non-finite
    value at row r"), then in ``y`` ("y contains a non-finite value at
    row r"), then a finite row of ``X`` whose L2 norm overflows float64
    ("row r of X has an L2 norm that overflows float64; scale X down
    before clipping"), which would otherwise clip to a row of zeros.

    Returns
    -------
    Dataset
        Validated dataset whose rows have norm at most 1 and whose
        responses lie in [-1, 1].
    """
    # One private copy of each input, X in the dataset's order, clipped in
    # place and then adopted by the Dataset: never the caller's own arrays.
    X = np.asarray(X)
    y = np.array(y, dtype=np.float64)
    _check_shapes(X, y)
    X = np.array(X, dtype=np.float64, order=_x_order(X.shape[1]))
    X /= np.maximum(_check_finite(X, y), 1.0)[:, None]
    np.clip(y, -1.0, 1.0, out=y)
    X.setflags(write=False)
    y.setflags(write=False)
    return validate_dataset(Dataset(X=X, y=y))
