"""Dataset containers, bound checks, normalization, and CSV I/O.

Every sensitivity bound in :mod:`dpirls.mechanisms` assumes the row norms
of the design matrix are at most 1 and the responses lie in [-1, 1].  The
helpers here establish and verify those bounds; the solver re-checks them
before calibrating any noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# Slack for the norm bounds: rounding in a row norm of a legitimately
# normalized dataset is a few ulp, far below this.
NORM_TOLERANCE = 1e-9

# A maximum norm already this close to 1 is left untouched so that
# normalizing twice is bitwise identical to normalizing once.
_RENORM_SKIP = 1e-12


class DataValidationError(ValueError):
    """Raised when a dataset violates the documented bounds."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


# Argument checks shared by every module, so each rule and its message
# is stated once.

def _check_positive_finite(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


_INT_BOUNDS = {0: "a non-negative integer", 1: "a positive integer"}


def _check_int(name: str, value: int, low: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or value < low:
        bound = _INT_BOUNDS.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_probability(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _as_vector(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={a.ndim}")
    return a


def _as_square(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _as_theta(theta: np.ndarray, d: int, name: str = "theta") -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != d:
        raise ValueError(f"{name} must have shape ({d},), got {theta.shape}")
    return theta


@dataclass(frozen=True)
class Dataset:
    """Design matrix ``X`` of shape (n, d) and response vector ``y`` of shape (n,).

    Construction checks shapes only.  Use :func:`validate_dataset` to
    enforce the norm bounds, or :func:`normalize_dataset` to establish
    them.  The stored arrays are read-only copies.
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

    def __repr__(self) -> str:  # arrays are too noisy for the default repr
        return f"Dataset(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class MomentPair:
    """Weighted sufficient statistics of a dataset.

    ``A`` is the length-d weighted cross moment (1/n) X^T S y and ``B`` the
    d-by-d weighted Gram matrix (1/n) X^T S X for a diagonal weight matrix
    S.  ``B`` is symmetric by construction.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        A = _as_vector("A", self.A)
        B = _as_square("B", self.B)
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"dimension mismatch: A has length {A.shape[0]}, B is {B.shape[0]}x{B.shape[1]}"
            )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def __repr__(self) -> str:
        return f"MomentPair(d={self.d})"


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
    if not np.isfinite(dataset.X).all():
        bad = int(np.argwhere(~np.isfinite(dataset.X).all(axis=1))[0, 0])
        raise DataValidationError(f"X contains a non-finite value at row {bad}")
    if not np.isfinite(dataset.y).all():
        bad = int(np.argwhere(~np.isfinite(dataset.y))[0, 0])
        raise DataValidationError(f"y contains a non-finite value at row {bad}")

    norms = np.linalg.norm(dataset.X, axis=1)
    over = norms > 1.0 + NORM_TOLERANCE
    if over.any():
        bad = int(np.argmax(over))
        raise DataValidationError(
            f"row {bad} of X has L2 norm {norms[bad]:.6g} > 1; "
            "normalize_dataset establishes the bound"
        )
    over_y = np.abs(dataset.y) > 1.0 + NORM_TOLERANCE
    if over_y.any():
        bad = int(np.argmax(over_y))
        raise DataValidationError(
            f"y[{bad}] = {dataset.y[bad]:.6g} lies outside [-1, 1]; "
            "normalize_dataset establishes the bound"
        )
    return dataset


def normalize_dataset(X: np.ndarray, y: np.ndarray) -> Dataset:
    """Scale ``X`` and ``y`` so the bound checks pass, preserving direction.

    ``X`` is divided by its largest row L2 norm and ``y`` by its largest
    absolute entry, each only when that maximum differs from 1 by more
    than ``1e-12``.  The skip makes the operation bitwise idempotent:
    normalizing an already-normalized dataset returns identical bytes.
    All-zero inputs are returned unchanged.

    Returns
    -------
    Dataset
        Validated dataset with max row norm and max ``|y|`` equal to 1
        (within a few ulp) unless the corresponding input was all zero.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"expected X (n, d) and y (n,); got X {X.shape} and y {y.shape}"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataValidationError("cannot normalize non-finite data")

    max_norm = float(np.linalg.norm(X, axis=1).max()) if X.size else 0.0
    if max_norm > 0.0 and abs(max_norm - 1.0) > _RENORM_SKIP:
        X = X / max_norm
    max_abs_y = float(np.abs(y).max()) if y.size else 0.0
    if max_abs_y > 0.0 and abs(max_abs_y - 1.0) > _RENORM_SKIP:
        y = y / max_abs_y
    return validate_dataset(Dataset(X=X, y=y))


def save_dataset_csv(dataset: Dataset, path: str, header: bool = True) -> None:
    """Write one row per datapoint: d feature columns then the response.

    Floats are printed with 17 significant digits so a load round-trips
    to identical values.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"x{j + 1}" for j in range(dataset.d)] + ["y"])
        for i in range(dataset.n):
            row = [format(v, ".17g") for v in dataset.X[i]]
            row.append(format(dataset.y[i], ".17g"))
            writer.writerow(row)


def load_dataset_csv(path: str, has_header: bool = False) -> Dataset:
    """Read a dataset written by :func:`save_dataset_csv` and validate it.

    Every column but the last is a feature; the last is the response.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if has_header:
            next(reader, None)
        for lineno, raw in enumerate(reader, start=2 if has_header else 1):
            if not raw:
                continue
            if len(raw) < 2:
                raise DataValidationError(
                    f"line {lineno}: need at least one feature column and a response"
                )
            try:
                rows.append([float(v) for v in raw])
            except ValueError as exc:
                raise DataValidationError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DataValidationError(f"no data rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataValidationError(f"inconsistent column counts in {path}: {sorted(widths)}")
    arr = np.asarray(rows, dtype=np.float64)
    return validate_dataset(Dataset(X=arr[:, :-1], y=arr[:, -1]))
