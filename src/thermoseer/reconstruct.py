"""Thermal-field reconstruction for one layer.

The M measured/predicted profiles of a layer are stacked column-wise into a
5N x M snapshot matrix, reduced by singular value decomposition under a 99%
energy criterion, and an extreme learning machine is trained from relative
delay to the retained basis coefficients.  Any point on the layer is then
reconstructed as the basis times its predicted coefficients.

The reduced basis and coefficients are layer-specific and never reused
across layers; the ELM is cheap enough to retrain online per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CURVES_PER_PROFILE,
    Curve,
    DomainError,
    NumericsError,
    PointId,
    Profile,
    ShapeError,
)

DEFAULT_ENERGY_THRESHOLD = 0.99
DEFAULT_HIDDEN_NODES = 128


@dataclass(eq=False)
class ElmModel:
    """Single-hidden-layer network with frozen random hidden parameters and
    least-squares output weights.  Input dimension is 1 (the relative delay);
    parameter count is exactly n_hidden * (2 + m_star)."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    delay_mean: float
    delay_std: float
    seed: int

    def __post_init__(self) -> None:
        nh = self.hidden_weights.size
        if self.hidden_biases.shape != (nh,):
            raise ShapeError("hidden weights and biases must have equal length")
        if self.output_weights.shape[0] != nh:
            raise ShapeError(
                f"output weights must have {nh} rows, got {self.output_weights.shape}"
            )

    @property
    def n_hidden(self) -> int:
        return self.hidden_weights.size

    @property
    def m_star(self) -> int:
        return self.output_weights.shape[1]


def _hidden_matrix(elm: ElmModel, delays: np.ndarray) -> np.ndarray:
    x = (np.atleast_1d(delays) - elm.delay_mean) / elm.delay_std
    return np.maximum(np.outer(x, elm.hidden_weights) + elm.hidden_biases, 0.0)


def elm_train(delays: np.ndarray, coefficients: np.ndarray,
              n_hidden: int = DEFAULT_HIDDEN_NODES, seed: int = 0) -> ElmModel:
    """Fit the output weights by least squares; hidden weights and biases are
    drawn uniform on [-1, 1] from the seed and frozen.

    The solve is the SVD-based minimum-norm least squares, which stays
    well-posed for rank-deficient hidden matrices (the normal regime,
    M << n_hidden) and matches a dense pseudoinverse solve to working
    precision.
    """
    delays = np.asarray(delays, dtype=np.float64)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if delays.ndim != 1 or delays.size < 2:
        raise DomainError(f"need >= 2 training delays, got shape {delays.shape}")
    if coefficients.ndim != 2 or coefficients.shape[0] != delays.size:
        raise ShapeError(
            f"coefficients must be ({delays.size}, m_star), got {coefficients.shape}"
        )
    if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(coefficients))):
        raise DomainError("delays and coefficients must be finite")
    if n_hidden < 1:
        raise DomainError(f"n_hidden must be >= 1, got {n_hidden}")

    rng = np.random.default_rng(seed)
    omega = rng.uniform(-1.0, 1.0, size=n_hidden)
    bias = rng.uniform(-1.0, 1.0, size=n_hidden)
    mean = float(delays.mean())
    std = float(delays.std())
    if std < 1e-12:
        std = 1.0

    elm = ElmModel(omega, bias, np.zeros((n_hidden, coefficients.shape[1])),
                   mean, std, seed)
    h = _hidden_matrix(elm, delays)
    elm.output_weights = np.linalg.lstsq(h, coefficients, rcond=None)[0]
    return elm


def elm_predict(elm: ElmModel, delay: float) -> np.ndarray:
    """Basis-coefficient vector (m_star,) for one relative delay."""
    if not np.isfinite(delay):
        raise DomainError(f"delay must be finite, got {delay!r}")
    return (_hidden_matrix(elm, np.array([delay])) @ elm.output_weights)[0]


def elm_predict_many(elm: ElmModel, delays: np.ndarray) -> np.ndarray:
    """Coefficient rows (len(delays), m_star) in one pass."""
    delays = np.asarray(delays, dtype=np.float64)
    if not np.all(np.isfinite(delays)):
        raise DomainError("delays must be finite")
    return _hidden_matrix(elm, delays) @ elm.output_weights


def build_profile_matrix(profiles: list[Profile]) -> tuple[np.ndarray, np.ndarray]:
    """Stack M same-layer profiles into the 5N x M snapshot matrix, columns
    sorted by relative delay.  Returns (matrix, sorted delays)."""
    if len(profiles) < 2:
        raise DomainError(f"need >= 2 profiles, got {len(profiles)}")
    layers = {p.point.layer for p in profiles}
    if len(layers) != 1:
        raise ShapeError(f"profiles span layers {sorted(layers)}, need exactly one")
    sizes = {p.n for p in profiles}
    if len(sizes) != 1:
        raise ShapeError(f"profiles disagree on N: {sorted(sizes)}")
    ordered = sorted(profiles, key=lambda p: p.point.relative_delay)
    matrix = np.column_stack([p.stacked() for p in ordered])
    if matrix.shape[0] <= matrix.shape[1]:
        raise ShapeError(
            f"snapshot matrix must be tall (5N > M), got {matrix.shape}"
        )
    delays = np.array([p.point.relative_delay for p in ordered])
    return matrix, delays


def pod_decompose(matrix: np.ndarray, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD):
    """Thin SVD with the squared-singular-value energy criterion.

    Returns (basis, coefficient rows, m_star, singular values): the first
    m_star left singular vectors, the per-column coefficient rows (M, m_star)
    so that matrix ~= basis @ rows.T, the smallest basis count whose energy
    share reaches the threshold, and all M singular values.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"snapshot matrix must be 2-D, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("snapshot matrix must be finite")
    if not 0.0 < energy_threshold <= 1.0:
        raise DomainError(f"energy_threshold must be in (0, 1], got {energy_threshold}")

    try:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "SVD did not converge for a %dx%d matrix (Frobenius norm %.3g, "
            "max |entry| %.3g)" % (
                matrix.shape[0], matrix.shape[1],
                float(np.linalg.norm(matrix)), float(np.max(np.abs(matrix))),
            )
        ) from exc

    energy = np.cumsum(s ** 2)
    total = energy[-1]
    if total <= 0.0:
        raise DomainError("snapshot matrix is identically zero")
    ratios = energy / total
    m_star = int(np.argmax(ratios >= energy_threshold - 1e-12)) + 1

    basis = u[:, :m_star]
    # coefficient matrix C = Sigma V^T; its column j holds point j's coefficients
    rows = (s[:m_star, None] * vt[:m_star, :]).T
    return basis, rows, m_star, s


@dataclass(eq=False)
class LayerReconstruction:
    """Reduced basis, training coefficients, and the trained ELM of one layer."""

    basis: np.ndarray
    coefficients: np.ndarray
    m_star: int
    singular_values: np.ndarray
    elm: ElmModel
    layer: int
    durations: tuple[float, ...]
    travel_speed: float
    delay_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.basis.ndim != 2 or self.basis.shape[1] != self.m_star:
            raise ShapeError(f"basis must be 5N x m_star, got {self.basis.shape}")
        if self.basis.shape[0] % CURVES_PER_PROFILE != 0:
            raise ShapeError("basis row count must be a multiple of 5")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(self.m_star))) > 1e-10:
            raise NumericsError("reduced basis columns are not orthonormal to 1e-10")
        if np.any(np.diff(self.singular_values) > 1e-12):
            raise DomainError("singular values must be sorted nonincreasing")
        if len(self.durations) != CURVES_PER_PROFILE:
            raise ShapeError("need one duration per curve")

    @property
    def n(self) -> int:
        return self.basis.shape[0] // CURVES_PER_PROFILE


def fit_layer(profiles: list[Profile], travel_speed: float,
              energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
              n_hidden: int = DEFAULT_HIDDEN_NODES, seed: int = 0) -> LayerReconstruction:
    """Decompose a layer's profiles and train its delay-to-coefficients ELM."""
    matrix, delays = build_profile_matrix(profiles)
    basis, rows, m_star, singular_values = pod_decompose(matrix, energy_threshold)
    elm = elm_train(delays, rows, n_hidden=n_hidden, seed=seed)
    reference = min(profiles, key=lambda p: p.point.relative_delay)
    return LayerReconstruction(
        basis=basis,
        coefficients=rows,
        m_star=m_star,
        singular_values=singular_values,
        elm=elm,
        layer=profiles[0].point.layer,
        durations=reference.durations,
        travel_speed=travel_speed,
        delay_range=(float(delays[0]), float(delays[-1])),
    )


def reconstruct_profile(recon: LayerReconstruction, delay: float) -> Profile:
    """Temperature profile of an arbitrary point on the layer: the reduced
    basis times the ELM's coefficient estimate, unstacked into five curves."""
    stacked = recon.basis @ elm_predict(recon.elm, delay)
    n = recon.n
    point = PointId(recon.layer, delay * recon.travel_speed, delay)
    curves = tuple(
        Curve(stacked[k * n:(k + 1) * n], recon.durations[k], k + 1)
        for k in range(CURVES_PER_PROFILE)
    )
    return Profile(point, curves)


def reconstruct_stacked(recon: LayerReconstruction, delays: np.ndarray) -> np.ndarray:
    """Stacked 5N-vectors for many delays at once, one column per delay."""
    return recon.basis @ elm_predict_many(recon.elm, delays).T
