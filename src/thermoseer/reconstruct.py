"""Thermal-field reconstruction for one layer.

The M measured/predicted profiles of a layer are stacked column-wise into a
5N x M snapshot matrix, reduced by singular value decomposition under a 99%
energy criterion, and an extreme learning machine (128 hidden nodes, seed
0) is trained from relative delay to the retained basis coefficients; only
the primitives under :func:`fit_layer` take other values.  Any point on the
layer is then reconstructed as the basis times its predicted coefficients.

The reduced basis and coefficients are layer-specific and never reused
across layers; the ELM is cheap enough to retrain online per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .core import (
    CURVES_PER_PROFILE,
    DomainError,
    NumericsError,
    PointId,
    Profile,
    ShapeError,
    curve_durations,
    one_layer,
    real_number,
    stack_temps,
    whole_number,
)

DEFAULT_ENERGY_THRESHOLD = 0.99
DEFAULT_HIDDEN_NODES = 128
# (n_hidden, seed) keys whose frozen hidden layers stay drawn
_HIDDEN_LAYERS_KEPT = 8


@dataclass(frozen=True, eq=False)
class ElmModel:
    """Single-hidden-layer network with frozen random hidden parameters and
    least-squares output weights.  Input dimension is 1 (the relative delay);
    with n_hidden hidden nodes and m_star outputs the parameter count is
    exactly n_hidden * (2 + m_star).

    The model checks what it holds when it is built: arrays whose sizes
    disagree raise ShapeError; a non-finite weight or bias, a non-finite
    ``delay_mean`` or a ``delay_std`` that is not positive and finite raise
    DomainError.  It makes its output weights read-only."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    delay_mean: float
    delay_std: float

    def __post_init__(self) -> None:
        nh = self.hidden_weights.size
        if self.hidden_biases.shape != (nh,):
            raise ShapeError("hidden weights and biases must have equal length")
        if self.output_weights.ndim != 2 or self.output_weights.shape[0] != nh:
            raise ShapeError(
                f"output weights must have {nh} rows, got {self.output_weights.shape}"
            )
        if not (np.isfinite(self.hidden_weights).all() and np.isfinite(self.hidden_biases).all()
                and np.isfinite(self.output_weights).all()):
            raise DomainError("ELM weights and biases must be finite")
        for name, bound in (("delay_mean", None), ("delay_std", "> 0")):
            object.__setattr__(self, name, real_number(name, getattr(self, name), bound))
        # a layer keeps coefficient rows predicted from these weights
        self.output_weights.flags.writeable = False


def _hidden_matrix(x: np.ndarray, hidden_weights: np.ndarray,
                   hidden_biases: np.ndarray) -> np.ndarray:
    """The (len(x), n_hidden) ReLU activations of standardised delays ``x``,
    built in place in one array of that size."""
    h = x[:, None] * hidden_weights
    h += hidden_biases
    return np.maximum(h, 0.0, out=h)


@lru_cache(maxsize=_HIDDEN_LAYERS_KEPT, typed=True)
def _hidden_layer(n_hidden: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only hidden weights and biases, drawn uniform on [-1, 1] from
    ``default_rng(seed)`` in that order; every ELM with this key shares
    them."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(-1.0, 1.0, size=n_hidden)
    bias = rng.uniform(-1.0, 1.0, size=n_hidden)
    omega.flags.writeable = bias.flags.writeable = False
    return omega, bias


def elm_train(delays: np.ndarray, coefficients: np.ndarray,
              n_hidden: int = DEFAULT_HIDDEN_NODES, seed: int = 0) -> ElmModel:
    """Fit the output weights by least squares; hidden weights and biases are
    drawn uniform on [-1, 1] from the seed and frozen.  They are drawn once
    per (n_hidden, seed) and shared, read-only, by every ELM trained with
    that pair.  The delays are standardised by their mean and (population)
    standard deviation, summed as ``np.mean``/``np.std`` sum them.

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
    if not (np.isfinite(delays).all() and np.isfinite(coefficients).all()):
        raise DomainError("delays and coefficients must be finite")

    omega, bias = _hidden_layer(whole_number("n_hidden", n_hidden, 1),
                                whole_number("seed", seed, 0))
    mean = float(delays.sum() / delays.size)
    deviations = delays - mean
    std = math.sqrt((deviations * deviations).sum() / delays.size)
    if std < 1e-12:
        std = 1.0

    h = _hidden_matrix(deviations / std, omega, bias)
    return ElmModel(omega, bias, np.linalg.lstsq(h, coefficients, rcond=None)[0], mean, std)


def elm_predict(elm: ElmModel, delays: ArrayLike) -> np.ndarray:
    """Basis-coefficient rows (len(delays), m_star) of a 1-D sequence of
    delays, in one pass."""
    delays = np.asarray(delays, dtype=np.float64)
    if delays.ndim != 1:
        raise ShapeError(f"delays must be 1-D, got shape {delays.shape}")
    if not np.isfinite(delays).all():
        raise DomainError("delays must be finite")
    x = (delays - elm.delay_mean) / elm.delay_std
    return _hidden_matrix(x, elm.hidden_weights, elm.hidden_biases) @ elm.output_weights


def build_profile_matrix(profiles: list[Profile]) -> tuple[np.ndarray, np.ndarray]:
    """Stack M same-layer profiles into the 5N x M snapshot matrix, columns
    sorted by relative delay, as the transposed view of their stacked
    (M, 5, N) block.  Returns (matrix, sorted delays)."""
    if len(profiles) < 2:
        raise DomainError(f"need >= 2 profiles, got {len(profiles)}")
    one_layer(p.point for p in profiles)
    ordered = sorted(profiles, key=lambda p: p.point.relative_delay)
    matrix = stack_temps(ordered, ordered[0].n).reshape(len(ordered), -1).T
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
    if not np.isfinite(matrix).all():
        raise DomainError("snapshot matrix must be finite")
    energy_threshold = real_number("energy_threshold", energy_threshold, "> 0")
    if energy_threshold > 1.0:
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


class FrameInputs(NamedTuple):
    """What the frames of one layer share at one ``key``, (layer_length,
    travel_speed, n_positions): the read-only positions and deposit times,
    and ``delays``, the printed prefix of the deposit times, with their
    read-only ELM ``coefficients`` (P, m_star)."""

    key: tuple[float, float, int]
    positions: np.ndarray
    deposit_times: np.ndarray
    delays: np.ndarray
    coefficients: np.ndarray


@dataclass(frozen=True, eq=False)
class LayerReconstruction:
    """Reduced basis and the trained ELM of one layer, with ``delay_range``,
    the (lo, hi) span of the relative delays the ELM was trained on.

    The layer checks what it holds when it is built: a basis that is not a
    5N x m_star matrix (m_star >= 1), or an ELM that does not predict
    m_star coefficients, raises ShapeError, and a basis whose
    columns are not orthonormal to 1e-10 (a NaN or an infinity included)
    NumericsError; ``durations`` must pass
    :func:`~thermoseer.core.curve_durations`, the rule a
    :class:`~thermoseer.core.Profile` holds its durations by, and
    ``delay_range`` must be finite with ``lo <= hi`` (DomainError).

    Its frame geometry is computed once, on first read, and is read-only:
    ``bounds``, the six curve bounds (0 followed by the cumulative
    durations, the last the five-curve horizon), and ``grids``, the (5, N)
    sample times of each curve.  A layer that is never rendered never
    builds them.  Beside them it keeps the inputs of its last frame
    (:meth:`frame`) for the next frame to reuse, as one read-only
    :class:`FrameInputs` replaced whole."""

    basis: np.ndarray
    elm: ElmModel
    layer: int
    durations: tuple[float, ...]
    delay_range: tuple[float, float]

    def __post_init__(self) -> None:
        if self.basis.ndim != 2 or self.basis.shape[1] < 1:
            raise ShapeError(f"basis must be 5N x m_star, got {self.basis.shape}")
        if self.basis.shape[0] % CURVES_PER_PROFILE != 0:
            raise ShapeError("basis row count must be a multiple of 5")
        if self.elm.output_weights.shape[1] != self.m_star:
            raise ShapeError(f"the ELM predicts {self.elm.output_weights.shape[1]} "
                             f"coefficients for a basis of {self.m_star} columns")
        # an infinity makes NaNs in the Gram matrix, which the test below
        # refuses, so numpy's warnings would only repeat the error
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.basis.T @ self.basis
        if not np.abs(gram - np.eye(self.m_star)).max() <= 1e-10:
            raise NumericsError("reduced basis columns are not orthonormal to 1e-10")
        object.__setattr__(self, "durations", curve_durations(self.durations))
        lo, hi = (real_number(f"delay_range[{i}]", x) for i, x in enumerate(self.delay_range))
        if lo > hi:
            raise DomainError(f"delay_range must be finite with lo <= hi, got {self.delay_range!r}")
        object.__setattr__(self, "delay_range", (lo, hi))

    @property
    def m_star(self) -> int:
        return self.basis.shape[1]

    @property
    def n(self) -> int:
        return self.basis.shape[0] // CURVES_PER_PROFILE

    @cached_property
    def bounds(self) -> np.ndarray:
        bounds = np.cumsum((0.0, *self.durations))
        bounds.flags.writeable = False
        return bounds

    @cached_property
    def grids(self) -> np.ndarray:
        grids = np.linspace(0.0, self.durations, self.n, axis=-1)
        grids.flags.writeable = False
        return grids

    def frame(self, layer_length: float, travel_speed: float, n_positions: int,
              local_time: float) -> FrameInputs:
        """The inputs of a frame at ``local_time`` (its caller checks the
        arguments): ``n_positions`` evenly spaced positions on a layer of
        ``layer_length`` mm, their deposit times at ``travel_speed`` mm/s,
        and the ELM coefficient rows of the P printed positions, the prefix
        whose deposit time is at most ``local_time``.

        The layer keeps the last frame's inputs.  A frame of the same
        length, speed and position count reuses the positions and deposit
        times, and a frame that also prints the same P reuses the
        coefficient rows; any other frame computes them as the first did and
        replaces the kept inputs, so every frame gets the same bits.  Threads
        may replace them in turn: each frame uses the one entry it holds."""
        key = (layer_length, travel_speed, n_positions)
        kept = vars(self).get("_frame")
        if kept is not None and kept.key == key:
            positions, deposit_times = kept.positions, kept.deposit_times
        else:
            positions = np.linspace(0.0, layer_length, n_positions)
            deposit_times = positions / travel_speed
            positions.flags.writeable = deposit_times.flags.writeable = False
            kept = None
        # deposit times rise with position, so the printed ones are a prefix
        printed = int(deposit_times.searchsorted(local_time, side="right"))
        if kept is not None and kept.delays.size == printed:
            return kept
        delays = deposit_times[:printed]
        coefficients = elm_predict(self.elm, delays)
        coefficients.flags.writeable = False
        kept = FrameInputs(key, positions, deposit_times, delays, coefficients)
        vars(self)["_frame"] = kept
        return kept


def fit_layer(profiles: list[Profile]) -> LayerReconstruction:
    """Decompose a layer's profiles and train its delay-to-coefficients ELM
    at the paper's 99% energy, 128 hidden nodes and hidden seed 0."""
    matrix, delays = build_profile_matrix(profiles)
    basis, rows, _, _ = pod_decompose(matrix)
    elm = elm_train(delays, rows)
    reference = min(profiles, key=lambda p: p.point.relative_delay)
    return LayerReconstruction(
        basis=basis,
        elm=elm,
        layer=profiles[0].point.layer,
        durations=reference.durations,
        delay_range=(float(delays[0]), float(delays[-1])),
    )


def reconstruct_stacked(recon: LayerReconstruction, delays: ArrayLike,
                        rows: np.ndarray | None = None) -> np.ndarray:
    """Stacked 5N-vectors for P delays at once: the reduced basis times the
    ELM's coefficient estimates, summed mode by mode in mode order.

    Without ``rows`` the result is the (5N, P) block, one column per delay.
    With an (R, P) integer array it is the (R, P) array of
    ``block[rows[r, p], p]``, computed from the gathered basis rows alone;
    both forms give the same bits.

    Handed the ``delays`` array of the layer's kept frame itself (the same
    read-only object, :meth:`LayerReconstruction.frame`), it reuses the
    coefficient rows kept with it; any other delays are predicted here."""
    kept = vars(recon).get("_frame")
    coef = kept.coefficients if kept is not None and delays is kept.delays \
        else elm_predict(recon.elm, delays)  # (P, m_star)
    basis = recon.basis[:, None, :] if rows is None else recon.basis[rows]
    out = basis[..., 0] * coef[:, 0]
    for i in range(1, recon.m_star):
        out += basis[..., i] * coef[:, i]
    return out


def reconstruct_profile(recon: LayerReconstruction, point: PointId) -> Profile:
    """Temperature profile of an arbitrary point on the layer: the one
    stacked column of :func:`reconstruct_stacked` at ``point.relative_delay``
    as a (5, N) block, returned under ``point`` itself.  A point on another
    layer raises DomainError."""
    if point.layer != recon.layer:
        raise DomainError(f"point is on layer {point.layer}, the reconstruction "
                          f"on layer {recon.layer}")
    stacked = reconstruct_stacked(recon, [point.relative_delay])[:, 0]
    return Profile(point, stacked.reshape(CURVES_PER_PROFILE, recon.n), recon.durations)
