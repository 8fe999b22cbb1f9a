"""Benchmark objectives, the additive gradient-noise model, and datasets.

Objectives are immutable bundles of exact value and gradient callables.
Gradients are hand-derived (no autodiff) and checked against central finite
differences by the verify module. value, gradient and stochastic_grad take
a point (n,) or a stack (..., n) and give each row the bits it gets alone.
A large data matrix is multiplied a row block at a time, each block by
every point of a call while it is in cache (_matvec has the rule).
The noise model perturbs gradients with a bounded envelope
g(x) = sigma_tilde * min(sqrt(||x||), 1) * ones(n), which keeps the
perturbation uniformly bounded while still breaking mean-squared
smoothness near the origin.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NOISE_KINDS",
    "ProblemConstants",
    "SmoothProblem",
    "NoiseModel",
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
    "draw_block",
    "generate_synthetic",
    "load_csv_dataset",
    "dataset_to_csv",
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
    d = 1.0 + e
    out = np.where(t >= 0.0, 1.0 / d, e / d)
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
    """M x per row x of X, as matrix-vector products (X @ M.T is a matrix
    product whose bits depend on the number of rows).

    M goes `rows` rows at a time (the most rows in 256 KiB, a multiple of
    4), each block times every x while it is in cache; the last block takes
    the rest too, as a 1-row product goes to numpy's dot, whose bits differ
    from gemv's. Every x, (n,) included, takes the same blocks at the same
    offsets mod 4, so its rows have the bits they get alone. A block is too
    small for OpenBLAS to split across threads, which give a whole product
    other bits at a split that is not a multiple of 4. A matrix of fewer
    than 2·rows rows is one product."""
    m, n = M.shape
    rows = max(4, 8192 // n * 4)  # 8 B · 4 · 8192 = 256 KiB
    if m < 2 * rows:
        return (M @ X[..., None])[..., 0]
    P, nb = X.reshape(-1, n), m // rows - 1
    cut = nb * rows
    out = np.empty((len(P), m))
    head = M[:cut].reshape(nb, 1, rows, n) @ P[None, :, :, None]  # block-major loop
    out[:, :cut].reshape(len(P), nb, rows, copy=False)[...] = head[..., 0].transpose(1, 0, 2)
    out[:, cut:] = (M[cut:] @ P[:, :, None])[..., 0]
    return out.reshape(X.shape[:-1] + (m,))


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
        if not math.isfinite(self.sigma_tilde):
            raise ValueError(f"sigma_tilde must be finite, got {self.sigma_tilde}")
        if self.kind != "none" and not self.sigma_tilde > 0.0:
            raise ValueError("sigma_tilde must be positive for gaussian noise kinds")
        if self.sigma_tilde < 0.0:
            raise ValueError("sigma_tilde must be nonnegative")

    def envelope_scale(self, x):
        """sigma_tilde * min(sqrt(||x||), 1): each coordinate of g(x), per row."""
        x = np.asarray(x, dtype=float)
        return _per_point(self.sigma_tilde * np.minimum(np.sqrt(_norm(x)), 1.0))


def draw_sample(noise: NoiseModel, dim: int, run_seed: int, k: int) -> Union[float, np.ndarray]:
    """The noise draw xi of iteration k, derived from (run_seed, k): a float
    for the scalar kind, a (dim,) array for the elementwise kind, and 0.0
    for "none", which skips the generator entirely.

    This is the definition of every draw, and the reference that
    draw_block, the faster path the run loop takes, is tested against.
    Every gradient query inside an iteration shares its one draw; that
    coupling is what the momentum combination relies on. Seeding per
    iteration index makes trajectories replay identically whatever the
    logging stride or restart point.
    """
    if noise.kind == "none":
        return 0.0
    rng = np.random.default_rng((run_seed, k))
    if noise.kind == "scalar-gaussian-envelope":
        return float(rng.standard_normal())
    return rng.standard_normal(dim)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_states(seeds: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """SeedSequence((s, k)).generate_state(4, np.uint64) for every k of ks
    and s of seeds (uint32 arrays), as (len(ks), len(seeds), 4): numpy's
    hash of the two entropy words into a pool of 4, then of the pool into
    8 words, on whole arrays (uint32 arithmetic wraps as numpy's C does)."""
    h = [_INIT_A]

    def hashmix(v, mult):
        v = v ^ h[0]
        h[0] = h[0] * mult & 0xFFFFFFFF
        v = v * h[0]
        return v ^ (v >> 16)

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(w, _MULT_A) for w in (seeds[None, :], ks[:, None], zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = pool[dst] * _MIX_L - hashmix(pool[src], _MULT_A) * _MIX_R
                pool[dst] = r ^ (r >> 16)
    h[0] = _INIT_B
    words = np.broadcast_arrays(*(hashmix(pool[i % 4], _MULT_B) for i in range(8)))
    state = np.stack(words, axis=-1).astype("<u4", copy=False)  # numpy's little-endian pairs
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed():
    """An ISeedSequence holding one C-contiguous generate_state(4, np.uint64)
    result, made at first use: importing momex leaves numpy.random alone."""

    class Hashed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:  # PCG64's request, and no other
                raise ValueError(f"holds generate_state(4, uint64), not ({n_words}, {dtype})")
            return self.state

    return Hashed


def draw_block(noise: NoiseModel, dim: int, seeds: Sequence[int], k0: int, k1: int) -> np.ndarray:
    """The draws of iterations k0 .. k1 - 1 for every seed, bit for bit what
    stacking draw_sample gives: (k1 - k0, S), (k1 - k0, S, dim) for the
    elementwise kind, zeros for "none". default_rng((s, k)) is PCG64 seeded
    by SeedSequence((s, k)); that hash runs for the whole block at once, on
    arrays, and each pair's state seeds numpy's own PCG64 and standard_normal.
    A seed that is not an integer in [0, 2**32), or a k outside it, sends the
    block pair by pair through draw_sample: its bits and errors (a negative
    seed) are then numpy's own."""
    shape = (k1 - k0, len(seeds)) + ((dim,) if noise.kind == NOISE_KINDS[2] else ())
    if noise.kind == "none":
        return np.zeros(shape[:2])
    if 0 <= k0 and k1 <= 1 << 32 and all(
            isinstance(s, (int, np.integer)) and 0 <= s < 1 << 32 for s in seeds):
        states = _seed_states(np.array(seeds, dtype=np.uint32),
                              np.arange(k0, k1, dtype=np.int64).astype(np.uint32))
        Hashed, size, rng, pcg = _hashed(), shape[2:] or None, np.random.Generator, np.random.PCG64
        draws = [rng(pcg(Hashed(st))).standard_normal(size) for st in states.reshape(-1, 4)]
    else:
        draws = [draw_sample(noise, dim, s, k) for k in range(k0, k1) for s in seeds]
    return np.array(draws, dtype=float).reshape(shape)


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


def stochastic_grad(problem: SmoothProblem, noise: NoiseModel, x, xi) -> np.ndarray:
    """G(x; xi): the exact gradient plus the envelope-scaled draw xi, as
    draw_sample returns it; for stacked points, one draw per run (S,) or
    (S, n) broadcast against their leading axes.

    Deterministic given (x, xi); at x = 0 the envelope vanishes and the
    output is the exact gradient for any draw. problem.gradient checks the
    shape of x: every problem here raises ValueError naming (..., dim).
    """
    grad = problem.gradient(x)
    return grad if noise.kind == "none" else apply_noise(grad, noise, x, xi)


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
    if not 1.0 <= conditioning < math.inf:  # nan and inf compare False
        raise ValueError(f"conditioning must be finite and >= 1, got {conditioning}")
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
        for name, v in (("features", A), ("targets", b)):
            if not np.isfinite(v).all():
                at = tuple(map(int, np.argwhere(~np.isfinite(v))[0]))
                raise ValueError(f"{name} must be finite, got {v[at]} at index {at}")
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
            no feature column besides the target, or a non-numeric or
            non-finite cell (the message names the row and column).
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
    if len(header) == 1:
        raise DatasetFormatError(f"{path}: no feature columns besides the target")
    data = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i - 2, j] = value = float(cell)
                fault = None if math.isfinite(value) else "non-finite"
            except ValueError:
                fault = "non-numeric"
            if fault:
                raise DatasetFormatError(
                    f"{path}: {fault} value {cell.strip()!r} at row {i}, column {header[j]!r}"
                )
    for j in range(data.shape[1]):
        data[:, j] = _rescale_unit(data[:, j])
    mask = np.ones(len(header), dtype=bool)
    mask[ti] = False
    return Dataset(
        features=data[:, mask],
        targets=data[:, ti],
        provenance=f"file({path})",
    )


def dataset_to_csv(dataset: Dataset) -> str:
    """A dataset in the ingestion format (header x1..xn, target), as text
    with csv's \\r\\n line ends.

    Values are written with full round-trip precision and are NOT rescaled;
    rescaling happens on ingestion only.
    """
    fh = io.StringIO()
    w = csv.writer(fh)
    w.writerow([f"x{j + 1}" for j in range(dataset.n)] + ["target"])
    for i in range(dataset.m):
        w.writerow(
            [repr(float(v)) for v in dataset.features[i]]
            + [repr(float(dataset.targets[i]))]
        )
    return fh.getvalue()


def save_dataset(dataset: Dataset, path) -> None:
    """Write dataset_to_csv(dataset) to path, byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write(dataset_to_csv(dataset))
