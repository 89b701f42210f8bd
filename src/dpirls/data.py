"""Dataset container, bound checks, and normalization.

Every sensitivity bound in :mod:`dpirls.mechanisms` assumes the row norms
of the design matrix are at most 1 and the responses lie in [-1, 1].  The
helpers here establish and verify those bounds, and the private solver
calls :func:`validate_dataset` before calibrating any noise.  The check
runs once per :class:`Dataset`; later calls on the same instance reuse
its result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Slack for the norm bounds: rounding in a row norm of a legitimately
# normalized dataset is a few ulp, far below this.
NORM_TOLERANCE = 1e-9

# A maximum norm already this close to 1 is left untouched so that
# normalizing twice is bitwise identical to normalizing once.
_RENORM_SKIP = 1e-12

# A Gram matrix assembled from real data is symmetric to a few ulp; a
# larger asymmetry means the caller is not passing a moment matrix.
_SYMMETRY_TOLERANCE = 1e-10

# _row_norms and _first_nonfinite_row work through X in blocks of about
# this many entries, so their temporaries stay at 512 KiB whatever n is.
_NORM_BLOCK_ELEMENTS = 1 << 16


class DataValidationError(ValueError):
    """Raised when a dataset violates the documented bounds."""


def _freeze(a: np.ndarray) -> np.ndarray:
    # Fortran order is what Dataset.X needs; for vectors it is C order too.
    # An array that is already stored so, read-only and owning its buffer,
    # is adopted as it is; anything else is copied.
    flags = a.flags
    if a.dtype == np.float64 and flags.f_contiguous and flags.owndata and not flags.writeable:
        return a
    out = np.array(a, dtype=np.float64, order="F", copy=True)
    out.setflags(write=False)
    return out


# Argument checks shared by every module, so each rule and its message
# is stated once.

def _check_positive_finite(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


_INT_BOUNDS = {0: "a non-negative integer", 1: "a positive integer"}


def _check_int(name: str, value: int, low: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        bound = _INT_BOUNDS.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_probability(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


# Moment checks for the releases and solve_step.  A non-finite entry is
# refused before B's symmetry check, which would report NaN as asymmetry.
# Checks reduce with the ufuncs themselves: ndarray.all/.any's Python
# wrappers cost more than the check on an IRLS step's small arrays.

def _all_finite(a: np.ndarray) -> bool:
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _as_vector(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={a.ndim}")
    if not _all_finite(a):
        raise ValueError(f"{name} must be finite")
    return a


def _as_square(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not _all_finite(a):
        raise ValueError(f"{name} must be finite")
    return a


def _as_theta(theta: np.ndarray, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != d:
        raise ValueError(f"theta must have shape ({d},), got {theta.shape}")
    return theta


def _check_symmetric(name: str, B: np.ndarray) -> None:
    # Exact equality is the common case (syrk mirrors its triangle), and
    # it is cheaper than forming B - B^T.
    if np.logical_and.reduce(B == B.T, axis=None):
        return
    asym = float(np.maximum.reduce(np.abs(B - B.T), axis=None))
    # "not <=" so that a NaN asymmetry fails too.
    if not asym <= _SYMMETRY_TOLERANCE:
        raise ValueError(f"{name} must be symmetric; max |{name} - {name}^T| = {asym:.3g}")


def _row_norms(X: np.ndarray) -> np.ndarray:
    # np.linalg.norm(X, axis=1) by its own formula, over blocks of rows.
    # Each row is reduced on its own, in the same order as in the full
    # call, so the result is bitwise the same for C- and F-ordered X,
    # while the n x d squares become one block's worth.  No block is a
    # single row of a longer X: numpy lays a (1, d) temporary out
    # C-contiguous and sums it pairwise, where the full call sums an
    # F-ordered X's rows left to right.
    n, d = X.shape
    step = max(2, _NORM_BLOCK_ELEMENTS // max(d, 1))
    out = np.empty(n)
    start = 0
    while start < n:
        stop = n if n - start <= step + 1 else start + step
        np.sqrt(np.add.reduce(np.square(X[start:stop]), axis=1), out=out[start:stop])
        start = stop
    return out


def _first_nonfinite_row(X: np.ndarray) -> int:
    # Index of the first row of X holding a NaN or an infinity, or -1.
    # Checked over blocks of rows, so no n x d mask is allocated.
    step = max(1, _NORM_BLOCK_ELEMENTS // max(X.shape[1], 1))
    for start in range(0, X.shape[0], step):
        finite = np.isfinite(X[start:start + step])
        if not np.logical_and.reduce(finite, axis=None):
            return start + int(np.argmin(finite.all(axis=1)))
    return -1


@dataclass(frozen=True)
class Dataset:
    """Design matrix ``X`` of shape (n, d) and response vector ``y`` of shape (n,).

    Construction checks shapes only.  Use :func:`validate_dataset` to
    enforce the norm bounds, or :func:`normalize_dataset` to establish
    them.  The stored arrays are read-only, and ``X`` is stored
    column-major (Fortran order) whatever the input's order: every pass
    the solver makes over X (``X @ theta``, ``X.T @ v``, the row scaling
    ``X[a:b] * sqrt(w[a:b])[:, None]`` and the row gather of one block in
    ``compute_moments``, row norms) then streams through each feature
    column contiguously instead of running a d-element inner loop per
    row.  ``X^T X`` and ``X^T y`` are memoised per instance on first
    use (see ``_unit_moments``), and so are the solver's first IRLS step
    (see ``_first_step``) and a passed bounds check (see
    ``_bounds_checked``); all are sound because the arrays are read-only.

    An input that is already float64, F-contiguous, read-only and owns its
    buffer is adopted as it is, not copied; whoever passes one hands it
    over and must not set it writeable again.  Every other input (a
    writeable array, a view, C order, another dtype, a list) is copied, so
    later changes to the caller's array do not reach the dataset.
    """

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2:
            raise DataValidationError(f"X must be 2-dimensional, got ndim={X.ndim}")
        if y.ndim != 1:
            raise DataValidationError(f"y must be 1-dimensional, got ndim={y.ndim}")
        if X.shape[0] != y.shape[0]:
            raise DataValidationError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] < 1:
            raise DataValidationError("dataset must contain at least one row")
        if X.shape[1] < 1:
            raise DataValidationError("X must have at least one column")
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(self, "y", _freeze(y))

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
        computes them and stores ``(cap key, weights, MomentPair)`` in the
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
        If any entry is non-finite or any bound is violated.  The message
        names the first offending row.
    """
    dataset._bounds_checked  # runs the check on first access only
    return dataset


def _check_bounds(dataset: Dataset) -> None:
    norms = _row_norms(dataset.X)
    # A finite row norm means a finite row, so X is searched for a NaN or
    # an infinity only when some norm is not finite (the norm of a huge
    # but finite row overflows too).
    if not _all_finite(norms):
        bad = _first_nonfinite_row(dataset.X)
        if bad >= 0:
            raise DataValidationError(f"X contains a non-finite value at row {bad}")
    if not _all_finite(dataset.y):
        bad = int(np.argwhere(~np.isfinite(dataset.y))[0, 0])
        raise DataValidationError(f"y contains a non-finite value at row {bad}")

    over = norms > 1.0 + NORM_TOLERANCE
    if np.logical_or.reduce(over, axis=None):
        bad = int(np.argmax(over))
        raise DataValidationError(
            f"row {bad} of X has L2 norm {norms[bad]:.6g} > 1; "
            "normalize_dataset establishes the bound"
        )
    over_y = np.abs(dataset.y) > 1.0 + NORM_TOLERANCE
    if np.logical_or.reduce(over_y, axis=None):
        bad = int(np.argmax(over_y))
        raise DataValidationError(
            f"y[{bad}] = {dataset.y[bad]:.6g} lies outside [-1, 1]; "
            "normalize_dataset establishes the bound"
        )


def normalize_dataset(X: np.ndarray, y: np.ndarray) -> Dataset:
    """Scale ``X`` and ``y`` so the bound checks pass, preserving direction.

    ``X`` is divided by its largest row L2 norm and ``y`` by its largest
    absolute entry, each only when that maximum differs from 1 by more
    than ``1e-12``.  The skip makes the operation bitwise idempotent:
    normalizing an already-normalized dataset returns identical bytes.
    All-zero inputs are returned unchanged.  Non-finite data, and a row
    whose L2 norm overflows float64, raise :class:`DataValidationError`.

    Scaling by the data's own maxima is not a row-local map, so a private
    run on the result protects the normalized data, not the caller's.

    Returns
    -------
    Dataset
        Validated dataset with max row norm and max ``|y|`` equal to 1
        (within a few ulp) unless the corresponding input was all zero.
    """
    # One private column-major copy of each input, scaled in place and
    # then adopted by the Dataset: never the caller's own arrays.
    X = np.array(X, dtype=np.float64, order="F")
    y = np.array(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"expected X (n, d) and y (n,); got X {X.shape} and y {y.shape}"
        )
    if _first_nonfinite_row(X) >= 0 or not _all_finite(y):
        raise DataValidationError("cannot normalize non-finite data")

    # A finite row whose norm overflows would make max_norm inf and X all
    # zeros after the division; it is refused instead, without numpy's
    # overflow warning.
    with np.errstate(over="ignore"):
        norms = _row_norms(X)
    # Below 2^-500 the squares in a norm can underflow (1e-170 reads 0.0).
    # Scaling X by 2^600 is exact and leaves every nonzero square normal.
    if X.size and norms.max() < 2.0**-500:
        np.ldexp(X, 600, out=X)
        norms = _row_norms(X)
    max_norm = float(norms.max()) if X.size else 0.0
    if math.isinf(max_norm):
        bad = int(np.argmax(np.isinf(norms)))
        raise DataValidationError(
            f"row {bad} of X has an L2 norm that overflows float64; "
            "scale X down before normalizing"
        )
    if max_norm > 0.0 and abs(max_norm - 1.0) > _RENORM_SKIP:
        X /= max_norm
    max_abs_y = float(np.abs(y).max()) if y.size else 0.0
    if max_abs_y > 0.0 and abs(max_abs_y - 1.0) > _RENORM_SKIP:
        y /= max_abs_y
    X.setflags(write=False)
    y.setflags(write=False)
    return validate_dataset(Dataset(X=X, y=y))
