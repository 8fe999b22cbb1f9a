"""Benchmark objectives, the additive gradient-noise model, and datasets.

Objectives are immutable bundles of exact value and gradient callables.
Gradients are hand-derived (no autodiff) and checked against central finite
differences by the verify module. value, gradient and stochastic_grad take
a point (n,) or a stack (..., n) and give each row the bits it gets alone.
The noise model perturbs gradients with a bounded envelope
g(x) = sigma_tilde * min(sqrt(||x||), 1) * ones(n), which keeps the
perturbation uniformly bounded while still breaking mean-squared
smoothness near the origin.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "NOISE_KINDS",
    "ProblemConstants",
    "SmoothProblem",
    "NoiseModel",
    "Sample",
    "Dataset",
    "DatasetFormatError",
    "sigmoid",
    "sigmoid_prime",
    "datafit_problem",
    "robust_problem",
    "quadratic_problem",
    "stochastic_grad",
    "apply_noise",
    "draw_sample",
    "generate_synthetic",
    "load_csv_dataset",
    "save_dataset",
]

NOISE_KINDS = ("none", "scalar-gaussian-envelope", "elementwise-gaussian-envelope")


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the offending row/column."""


def sigmoid(t):
    """Logistic function 1/(1 + e^-t), stable on both tails.

    With e = exp(-|t|) no positive argument is ever exponentiated, so there
    is no overflow anywhere on the float64 range; |t| >= 37 saturates to 0
    or 1 at machine precision. Accepts scalars or arrays of any shape.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def sigmoid_prime(t):
    """Derivative s(t)(1 - s(t)) of the logistic function."""
    s = np.asarray(sigmoid(t))
    out = s * (1.0 - s)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProblemConstants:
    """Optional smoothness metadata used only for summary reporting."""

    L1: Optional[float] = None
    Lp: Optional[float] = None
    p: Optional[int] = None
    f_low: Optional[float] = None


@dataclass(frozen=True, eq=False)
class SmoothProblem:
    """Objective with exact value and gradient callables on R^dim.

    value maps points (..., dim) to (...) and gradient to (..., dim).
    taylor_gradient(x, dx, order), when present, returns the order-`order`
    expansion of the gradient around x evaluated at x + dx, exactly; only
    problems whose derivative tensors are known in closed form supply it.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constants: Optional[ProblemConstants] = None
    taylor_gradient: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None


def _check_point(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"point has shape {x.shape}, problem expects (..., {dim})")
    return x


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M x per row x of X, as one matrix-vector product each (X @ M.T is a
    matrix product whose bits depend on the number of rows)."""
    return (M @ X[..., None])[..., 0]


def _norm(X: np.ndarray) -> np.ndarray:
    """||x|| for every row x of X, bitwise np.linalg.norm of the row."""
    return np.sqrt(np.vecdot(X, X))


def _per_point(v):
    """A Python float for one point, the array for a stack of points."""
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient perturbation xi * g(x) with a bounded envelope.

    kind "scalar-gaussian-envelope" draws one standard normal per iteration
    and adds it to every coordinate through the envelope; "elementwise"
    draws a full vector. ||g(x)|| <= sigma_tilde * sqrt(n) everywhere, so
    the perturbation has uniformly bounded second moment.
    """

    kind: str = "none"
    sigma_tilde: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.kind != "none" and not self.sigma_tilde > 0.0:
            raise ValueError("sigma_tilde must be positive for gaussian noise kinds")
        if self.sigma_tilde < 0.0:
            raise ValueError("sigma_tilde must be nonnegative")

    def envelope_scale(self, x):
        """sigma_tilde * min(sqrt(||x||), 1): each coordinate of g(x), per row."""
        x = np.asarray(x, dtype=float)
        return _per_point(self.sigma_tilde * np.minimum(np.sqrt(_norm(x)), 1.0))


@dataclass(frozen=True, eq=False)
class Sample:
    """One iteration's noise realization plus the lineage that produced it.

    A single Sample must be shared by every gradient query inside its
    iteration; that coupling is what the momentum combination relies on.
    For a stack of S runs, xi is (S,) for the scalar kind or (S, n), and
    run_seed holds the S seeds.
    """

    xi: Union[float, np.ndarray]
    run_seed: int
    k: int


def draw_sample(noise: NoiseModel, dim: int, run_seed: int, k: int) -> Sample:
    """Noise draw for iteration k, derived from (run_seed, k).

    Seeding per iteration index makes trajectories replay identically
    whatever the logging stride or restart point. The "none" kind skips the
    generator entirely.
    """
    if noise.kind == "none":
        return Sample(xi=0.0, run_seed=run_seed, k=k)
    rng = np.random.default_rng((run_seed, k))
    if noise.kind == "scalar-gaussian-envelope":
        return Sample(xi=float(rng.standard_normal()), run_seed=run_seed, k=k)
    return Sample(xi=rng.standard_normal(dim), run_seed=run_seed, k=k)


def apply_noise(grad: np.ndarray, noise: NoiseModel, x, xi) -> np.ndarray:
    """Perturb an already-computed gradient at x with the draw xi; a stack
    of draws broadcasts against the leading axes of stacked points."""
    if noise.kind == "none":
        return grad
    scale = noise.envelope_scale(x)
    xi = np.asarray(xi, dtype=float)
    if noise.kind == "scalar-gaussian-envelope":
        if xi.ndim >= grad.ndim:
            raise ValueError("scalar noise kind expects one scalar draw per point")
        return grad + np.multiply(scale, xi)[..., None]
    if xi.shape[-1:] != grad.shape[-1:]:
        raise ValueError(f"draw has shape {xi.shape}, gradient has {grad.shape}")
    return grad + np.asarray(scale)[..., None] * xi


def stochastic_grad(
    problem: SmoothProblem, noise: NoiseModel, x, sample: Sample
) -> np.ndarray:
    """G(x; xi): the exact gradient plus the envelope-scaled draw.

    Deterministic given (x, sample); at x = 0 the envelope vanishes and the
    output is the exact gradient for any draw.
    """
    x = _check_point(x, problem.dim)
    return apply_noise(problem.gradient(x), noise, x, sample.xi)


def datafit_problem(dataset: "Dataset") -> SmoothProblem:
    """Sigmoid least squares: f(x) = sum_i (s(a_i . x) - b_i)^2.

    gradient(x) = A^T [ 2 (s(u) - b) s'(u) ],  u = A x.
    """
    A = dataset.features
    b = dataset.targets
    At = np.ascontiguousarray(A.T)
    n = A.shape[1]

    def value(x):
        r = sigmoid(_matvec(A, _check_point(x, n))) - b
        return _per_point(np.vecdot(r, r))

    def gradient(x):
        s = sigmoid(_matvec(A, _check_point(x, n)))
        return _matvec(At, 2.0 * (s - b) * s * (1.0 - s))

    return SmoothProblem(
        name="datafit",
        dim=n,
        value=value,
        gradient=gradient,
        constants=ProblemConstants(f_low=0.0),
    )


def robust_problem(dataset: "Dataset") -> SmoothProblem:
    """Bounded-influence regression: f(x) = sum_i phi(a_i . x - b_i).

    phi(t) = t^2/(1 + t^2) saturates at 1, so single rows cannot dominate;
    phi'(t) = 2t/(1 + t^2)^2.
    """
    A = dataset.features
    b = dataset.targets
    At = np.ascontiguousarray(A.T)
    n = A.shape[1]

    def value(x):
        r = _matvec(A, _check_point(x, n)) - b
        r2 = r * r
        return _per_point(np.sum(r2 / (1.0 + r2), axis=-1))

    def gradient(x):
        r = _matvec(A, _check_point(x, n)) - b
        d = 1.0 + r * r
        return _matvec(At, 2.0 * r / (d * d))

    return SmoothProblem(
        name="robust",
        dim=n,
        value=value,
        gradient=gradient,
        constants=ProblemConstants(f_low=0.0),
    )


def quadratic_problem(n: int, conditioning: float = 1.0) -> SmoothProblem:
    """Diagonal quadratic f(x) = (1/2) sum_i lam_i x_i^2, minimizer at 0.

    Eigenvalues are log-spaced on [1, conditioning]. All derivatives of
    order three and up vanish, so taylor_gradient is exact at every order
    and the order-p remainder is identically zero for p >= 2.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if conditioning < 1.0:
        raise ValueError(f"conditioning must be >= 1, got {conditioning}")
    lam = np.geomspace(1.0, float(conditioning), n)
    lam.flags.writeable = False

    def value(x):
        x = _check_point(x, n)
        return _per_point(0.5 * np.vecdot(x, lam * x))

    def gradient(x):
        return lam * _check_point(x, n)

    def taylor_gradient(x, dx, order):
        x = _check_point(x, n)
        dx = _check_point(dx, n)
        if order < 1:
            raise ValueError(f"expansion order must be >= 1, got {order}")
        if order == 1:
            return lam * x
        return lam * (x + dx)

    return SmoothProblem(
        name="quadratic",
        dim=n,
        value=value,
        gradient=gradient,
        constants=ProblemConstants(L1=float(conditioning), Lp=0.0, p=2, f_low=0.0),
        taylor_gradient=taylor_gradient,
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (rows a_i), target vector, and where they came from."""

    features: np.ndarray
    targets: np.ndarray
    provenance: str

    def __post_init__(self):
        A = np.array(self.features, dtype=float)
        b = np.array(self.targets, dtype=float)
        if A.ndim != 2 or A.size == 0:
            raise ValueError("features must be a nonempty 2-d matrix")
        if b.shape != (A.shape[0],):
            raise ValueError(
                f"targets have shape {b.shape}, expected ({A.shape[0]},)"
            )
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "features", A)
        object.__setattr__(self, "targets", b)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


def generate_synthetic(n: int, seed: int) -> Dataset:
    """Square synthetic regression set with a planted parameter vector.

    Rows a_i and the hidden x* are standard normal; targets are
    b_i = s(a_i . x*) + 0.1 e_i with standard normal label noise e_i.
    Same (n, seed) always yields the bit-identical dataset.
    """
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    x_star = rng.standard_normal(n)
    b = sigmoid(A @ x_star) + 0.1 * rng.standard_normal(n)
    return Dataset(features=A, targets=b, provenance=f"synthetic(n={n}, seed={seed})")


def _rescale_unit(col: np.ndarray) -> np.ndarray:
    # constant columns map to 0: any constant is equally informative and
    # dividing by a zero span is the alternative
    lo = col.min()
    span = col.max() - lo
    if span == 0.0:
        return np.zeros_like(col)
    return (col - lo) / span


def load_csv_dataset(path, target_column: Union[str, int] = "target") -> Dataset:
    """Ingest a comma-separated numeric file and rescale it to [0,1].

    The first row is a header. target_column selects the target by name, or
    by 0-based position when an int. Every column, features and target
    alike, is min-max rescaled to [0,1] after parsing.

    Raises:
        DatasetFormatError: empty file, ragged row, unknown target column,
            or a non-numeric cell (the message names the row and column).
        OSError: unreadable path.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DatasetFormatError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    if len(rows) == 1:
        raise DatasetFormatError(f"{path}: no data rows after the header")
    if isinstance(target_column, int):
        if not 0 <= target_column < len(header):
            raise DatasetFormatError(
                f"{path}: target column index {target_column} outside 0..{len(header) - 1}"
            )
        ti = target_column
    else:
        try:
            ti = header.index(target_column)
        except ValueError:
            raise DatasetFormatError(
                f"{path}: no column named {target_column!r}; header has {header}"
            ) from None
    data = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i - 2, j] = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {i}, "
                    f"column {header[j]!r}"
                ) from None
    for j in range(data.shape[1]):
        data[:, j] = _rescale_unit(data[:, j])
    mask = np.ones(len(header), dtype=bool)
    mask[ti] = False
    return Dataset(
        features=data[:, mask],
        targets=data[:, ti],
        provenance=f"file({path})",
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the ingestion format (header x1..xn, target).

    Values are written with full round-trip precision and are NOT rescaled;
    rescaling happens on ingestion only.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{j + 1}" for j in range(dataset.n)] + ["target"])
        for i in range(dataset.m):
            w.writerow(
                [repr(float(v)) for v in dataset.features[i]]
                + [repr(float(dataset.targets[i]))]
            )
