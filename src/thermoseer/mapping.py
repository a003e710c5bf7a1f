"""Thermal-field mapping model.

A fully connected network with a residual connection maps the measured curve
of a point one layer up: the network consumes the curve's N temperatures
plus four process features and outputs the N-value correction added to the
input curve, so with zero weights the mapping is the identity.  Hidden sizes
are 3N, 6N, 12N, 6N, 3N with ReLU activations, dropout 0.1 sits before the
final N-output affine map, and training runs mini-batch Adam on a mean
squared error loss over scaled temperatures, the learning rate halved
every :data:`LR_DECAY_EVERY` epochs.  The training set is one
:class:`CurvePairs`: row-aligned arrays of input curves, process features
and overlap-truncated target curves, which every training function reads
directly.

Inference is array in, array out: :func:`forward_raw` maps a (B, N) block
of curves with its (B, 4) features to (B, N) predictions, and
:func:`forward_many` is the same pass with the output's physical range
checked, which is how a layer's five-curve profiles are mapped in one call.

The parameters are one vector, float32 or float64.  :func:`train` keeps
one float32 store of the weights: activations, gradients, Adam's moments
and the weights it updates in place are all float32, and that store is the
trained model's ``params``.  Training holds only what Adam needs: the
weights, the two moments, one affine map's gradient and one step's
activations.  The backward pass hands each map to Adam through a hook as
soon as it is done with it, so the maps' gradients share one buffer the
size of the largest map, and it writes each map's input gradient over the
activation it came from.  ``train`` keeps no reference to its input model
once it has cast the parameters.  Inference and checkpoints use the
parameters in their own dtype, so a trained model is served in float32,
while :func:`init_model` gives float64 parameters.  The loss and gradient
functions compute in float64 for every model.

Everything is plain numpy with explicit seeds: identical seeds give
bit-identical trained weights on one platform.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ABSOLUTE_ZERO_C,
    MAX_TEMPERATURE_C,
    DomainError,
    NumericsError,
    ShapeError,
    in_temperature_range,
)

TEMP_SCALE = 1000.0  # degC per network unit; keeps 1500 degC inputs O(1)
DROPOUT_RATE = 0.1
N_AFFINE_MAPS = 6
LR_DECAY_EVERY = 100  # epochs per decay: the rate is 0.5 ** (epoch // 100) of the first
LR_DECAY_RATIO = 0.5  # learning-rate factor at each decay
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# elements per Adam slice: one slice of each of its five buffers (~0.6 MB) stays in cache
ADAM_BLOCK = 1 << 15
# the BLAS build and its thread count decide the last bits of float32
# matmuls; train records the build, the thread setting as found when this
# module loads, and the CPU count, which OpenBLAS uses when the setting is unset
try:  # numpy describes its build as a dict from 1.26 on
    _BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    _BLAS = {}
_BLAS_META = {"blas_name": _BLAS.get("name"), "blas_version": _BLAS.get("version"),
              "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
              "cpu_count": os.cpu_count()}


def layer_dims(n: int) -> list[int]:
    """Sizes along the affine chain: N+4 inputs through the hidden widths 3N,
    6N, 12N, 6N, 3N to the N outputs."""
    return [n + 4, 3 * n, 6 * n, 12 * n, 6 * n, 3 * n, n]


def param_size(n: int) -> int:
    """The net's weight and bias count for N-value curves; N < 2 is a DomainError."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    dims = layer_dims(n)
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(params: np.ndarray, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The parameter layout: ``params`` holds ``w1, b1, ..., w6, b6`` back to
    back, each weight matrix row-major.  Returns the weight and bias views."""
    if params.shape != (param_size(n),):
        raise ShapeError(f"N={n} needs {param_size(n)} parameters in one vector, "
                         f"got shape {params.shape}")
    dims = layer_dims(n)
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(params[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(params[at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass(eq=False)
class MappingModel:
    """All weights and biases of the six affine maps in one vector
    ``params``, plus input scaling statistics.  ``params`` is float32 when
    given as float32 (a trained model's store) and float64 otherwise.

    ``weights[l]`` and ``biases[l]`` are views into ``params``; weight
    ``weights[l][i, j]`` connects input ``i`` of map ``l`` to its output
    ``j``.  A model is treated as immutable once returned by
    :func:`init_model` or :func:`train`.

    The model checks what it holds when it is built: a ``params`` vector
    that does not fit ``n``, or a ``feature_mean`` or ``feature_std`` that
    is not four values, raises ShapeError; an ``n`` below 2, a non-finite
    parameter, a non-finite ``feature_mean`` or a ``feature_std`` that is
    not positive and finite raises DomainError.
    """

    n: int
    params: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    scaler_fitted: bool
    seed: int
    training_meta: dict = field(default_factory=dict)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dtype = np.float32 if np.asarray(self.params).dtype == np.float32 else np.float64
        self.params = np.ascontiguousarray(self.params, dtype=dtype)
        self.weights, self.biases = _layer_views(self.params, self.n)
        self.feature_mean = np.asarray(self.feature_mean, dtype=np.float64)
        self.feature_std = np.asarray(self.feature_std, dtype=np.float64)
        if self.feature_mean.shape != (4,) or self.feature_std.shape != (4,):
            raise ShapeError(f"feature_mean and feature_std must have shape (4,), got "
                             f"{self.feature_mean.shape} and {self.feature_std.shape}")
        if not np.isfinite(self.params).all():
            raise DomainError("model parameters must be finite")
        if not np.isfinite(self.feature_mean).all():
            raise DomainError(f"feature_mean must be finite, got {self.feature_mean}")
        if not ((self.feature_std > 0.0).all() and np.isfinite(self.feature_std).all()):
            raise DomainError(f"feature_std must be positive and finite, "
                              f"got {self.feature_std}")


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch Adam training schedule; the rate decays every LR_DECAY_EVERY epochs."""

    epochs: int = 500
    batch_size: int = 256
    initial_lr: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise DomainError(f"{name} must be a whole number >= {low}, got {value!r}")
        if not 0.0 < self.initial_lr < math.inf:
            raise DomainError(f"initial_lr must be positive and finite, got {self.initial_lr}")

    def lr_at(self, epoch_index: int) -> float:
        """Learning rate used during the 0-indexed epoch: the initial rate
        shrunk by LR_DECAY_RATIO once for every LR_DECAY_EVERY epochs
        already completed, for any number of epochs."""
        return self.initial_lr * LR_DECAY_RATIO ** (epoch_index // LR_DECAY_EVERY)


@dataclass(frozen=True, eq=False)
class CurvePairs:
    """Supervised curve pairs as three row-aligned, read-only float64
    arrays: row i holds a lower point's curve (``inputs``, P x N), the four
    process features of its source layer
    (:func:`~thermoseer.core.mapping_features`; ``features``, P x 4) and the
    upper point's curve truncated to the overlap (``targets``, P x N).
    ``len(pairs)`` is P; ``pairs[rows]`` (a slice or an index array) is the
    CurvePairs of those rows.  Temperatures are checked as a
    :class:`~thermoseer.core.Profile` checks its own; features must be
    finite and >= 0."""

    inputs: np.ndarray
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs, features, targets = (np.ascontiguousarray(a, dtype=np.float64)
                                     for a in (self.inputs, self.features, self.targets))
        p, n = inputs.shape if inputs.ndim == 2 else (0, 0)
        if n < 2 or features.shape != (p, 4) or targets.shape != (p, n):
            raise ShapeError(f"curve pairs need inputs (P, N >= 2), features (P, 4) and "
                             f"targets (P, N), got {inputs.shape}, {features.shape} "
                             f"and {targets.shape}")
        if not (in_temperature_range(inputs) and in_temperature_range(targets)):
            raise DomainError(f"curve pair temperatures must lie strictly between "
                              f"{ABSOLUTE_ZERO_C} and {MAX_TEMPERATURE_C:g} degC")
        if not (np.all(np.isfinite(features)) and np.all(features >= 0.0)):
            raise DomainError("curve pair features must be >= 0 and finite")
        for name, array in (("inputs", inputs), ("features", features), ("targets", targets)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    def __getitem__(self, rows) -> "CurvePairs":
        return CurvePairs(self.inputs[rows], self.features[rows], self.targets[rows])


def init_model(n: int, seed: int = 0) -> MappingModel:
    """Fresh model: fan-in-scaled uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(param_size(n))
    for w in _layer_views(params, n)[0]:
        bound = np.sqrt(1.0 / w.shape[0])
        # drawn in place: rng.uniform(-bound, bound) is low + (high - low) * u
        # of these same draws, so the bytes are the same
        rng.random(out=w.reshape(-1))
        w *= bound - -bound
        w += -bound
    return MappingModel(n=n, params=params, feature_mean=np.zeros(4),
                        feature_std=np.ones(4), scaler_fitted=False, seed=seed)


def param_count(model: MappingModel) -> int:
    """Exact number of scalar weights and biases."""
    return model.params.size


def _net_forward(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
                 dropout_mask: np.ndarray | None = None):
    """Scaled network output plus each hidden layer's activation, which
    backpropagation needs.  ``x`` is (batch, N+4); the arithmetic runs in the
    dtype of the weights and ``x``."""
    post = []
    h = x
    for l in range(N_AFFINE_MAPS - 1):
        h = h @ weights[l]
        h += biases[l]
        np.maximum(h, 0.0, out=h)
        post.append(h)
    if dropout_mask is not None:
        h *= dropout_mask
        h /= 1.0 - DROPOUT_RATE
    out = h @ weights[-1] + biases[-1]
    return out, post


def _assemble_input(temps: np.ndarray, features: np.ndarray,
                    feature_mean: np.ndarray, feature_std: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [temps / TEMP_SCALE, (features - feature_mean) / feature_std], axis=-1
    )


def forward_raw(model: MappingModel, temps: np.ndarray,
                features: np.ndarray) -> np.ndarray:
    """Batched inference on plain arrays: (B, N) curve temperatures plus
    (B, 4) features to (B, N) predicted temperatures in degC.

    The network runs in the dtype of ``model.params``: the float64 input is
    cast once, as :func:`train` casts it, and the network's output is
    widened to float64 before it is scaled and added to ``temps``, so a
    zero-weight model is the identity in either dtype and a float64 model
    computes in float64 throughout.

    No physical-range validation is applied to the output, so this is the
    path for scoring a model that may still predict nonsense (for example a
    simulation-trained model applied to clamped pyrometer curves before
    fine-tuning)."""
    temps = np.atleast_2d(np.asarray(temps, dtype=np.float64))
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if temps.shape[1] != model.n or features.shape != (temps.shape[0], 4):
        raise ShapeError(
            f"expected temps (B, {model.n}) with features (B, 4), got "
            f"{temps.shape} and {features.shape}"
        )
    if not (np.all(np.isfinite(temps)) and np.all(np.isfinite(features))):
        raise DomainError("inputs must be finite")
    x = _assemble_input(temps, features, model.feature_mean,
                        model.feature_std).astype(model.params.dtype, copy=False)
    out, _ = _net_forward(model.weights, model.biases, x)
    return out.astype(np.float64, copy=False) * TEMP_SCALE + temps


def forward_many(model: MappingModel, temps: np.ndarray,
                 features: np.ndarray) -> np.ndarray:
    """:func:`forward_raw` for inference that must stay physical: (B, N)
    curve temperatures plus their (B, 4) features to (B, N) predicted
    temperatures in degC, in one matrix pass.  Output outside the range a
    :class:`~thermoseer.core.Profile` accepts (not finite, at or below
    absolute zero, at or above MAX_TEMPERATURE_C) is the model's fault (say,
    a diverged training run) and raises NumericsError."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        preds = forward_raw(model, temps, features)
    if not in_temperature_range(preds):
        raise NumericsError(f"the mapping model predicts non-finite temperatures or "
                            f"temperatures outside ({ABSOLUTE_ZERO_C}, "
                            f"{MAX_TEMPERATURE_C:g}) degC; retrain it")
    return preds


def _training_matrices(pairs: CurvePairs, feature_mean: np.ndarray,
                       feature_std: np.ndarray):
    x = _assemble_input(pairs.inputs, pairs.features, feature_mean, feature_std)
    # regression target of the network: the scaled residual correction
    r = (pairs.targets - pairs.inputs) / TEMP_SCALE
    return x, r


def mse_loss(model: MappingModel, pairs: CurvePairs) -> float:
    """Training loss on scaled targets with dropout disabled, computed in
    float64 whatever the dtype of the parameters."""
    x, r = _training_matrices(pairs, model.feature_mean, model.feature_std)
    weights, biases = _layer_views(model.params.astype(np.float64, copy=False), model.n)
    out, _ = _net_forward(weights, biases, x)
    return float(np.mean((out - r) ** 2))


def loss_gradients(model: MappingModel, pairs: CurvePairs,
                   dropout_mask: np.ndarray | None = None):
    """Analytic gradients of the batch MSE with respect to every weight and
    bias, via backpropagation, computed in float64 whatever the dtype of the
    parameters.  Returns (weight grads, bias grads, loss); the gradients are
    views into one flat float64 vector laid out like ``params``."""
    x, r = _training_matrices(pairs, model.feature_mean, model.feature_std)
    params = model.params.astype(np.float64, copy=False)
    weights, biases = _layer_views(params, model.n)
    d_weights, d_biases = _layer_views(np.empty_like(params), model.n)
    loss = _backprop(weights, biases, x, r, dropout_mask, d_weights, d_biases)
    return d_weights, d_biases, loss


def _backprop(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
              r: np.ndarray, dropout_mask: np.ndarray | None,
              d_weights: list[np.ndarray], d_biases: list[np.ndarray],
              done: Callable[[int], None] | None = None) -> float:
    """Writes the batch gradients into ``d_weights`` / ``d_biases`` and
    returns the batch loss, computed in the dtype of the arrays passed.

    The maps are visited last first.  ``done(l)``, when given, is called
    once map ``l``'s gradients are final and ``weights[l]`` has been read
    for the gradient of the map's input, so it may update map ``l`` in
    place, and the gradient views of different maps may then share one
    buffer.  Each map's input gradient is written over the activation it
    was computed from, so a step allocates no gradient arrays of its own."""
    out, post = _net_forward(weights, biases, x, dropout_mask)
    diff = out - r
    loss = float(np.mean(diff ** 2))

    grad = np.multiply(diff, 2.0 / diff.size, out=diff)
    for l in range(N_AFFINE_MAPS - 1, -1, -1):
        below = post[l - 1] if l > 0 else x
        np.matmul(below.T, grad, out=d_weights[l])
        grad.sum(axis=0, out=d_biases[l])
        if l > 0:
            # a ReLU output is > 0 exactly where its input was; where dropout
            # zeroed it, the gradient is already zero
            active = below > 0.0
            grad = np.matmul(grad, weights[l].T, out=below)
            if l == N_AFFINE_MAPS - 1 and dropout_mask is not None:
                grad *= dropout_mask
                grad /= 1.0 - DROPOUT_RATE
            grad *= active
        if done is not None:
            done(l)
    return loss


def train(model: MappingModel, pairs: CurvePairs,
          config: TrainConfig) -> tuple[MappingModel, list[float]]:
    """Mini-batch Adam training.

    Each epoch shuffles the pairs, partitions them into batches (the last
    may be short), and applies one Adam step per batch; the learning rate
    shrinks by the decay ratio after each decay epoch.  Feature scaling
    statistics are fitted from the pairs unless the model already carries
    fitted statistics (as a pretrained model does), so fine-tuning a
    pretrained model is this same procedure.

    Training keeps one float32 store of the weights, built from the input
    model's parameters: the forward and backward passes read views of it,
    and Adam, whose gradients and moments are float32 too, updates it in
    place.  Adam takes each affine map's step from the backward pass's hook
    as soon as that map's gradient is final, so one gradient buffer the size
    of the largest map serves all six.  That store is the float32 ``params``
    of the returned model, and inference and checkpoints use it as it is;
    the input model is neither copied nor written.  Once its parameters are
    cast, ``train`` holds no reference to the input model, so one passed as
    a temporary is freed before the first step on CPython 3.11 and later
    (3.10 keeps a call's arguments alive until it returns).  With zero
    epochs the input model itself is returned.

    Returns the trained model, whose ``training_meta`` records the epochs
    run, the final loss, each epoch's learning rate, the BLAS build,
    ``OPENBLAS_NUM_THREADS`` as found and the CPU count, and the per-epoch
    loss history; a non-finite batch loss (which float32 reaches
    above about 3.4e38) raises NumericsError, and so does a trained model
    that :class:`MappingModel` refuses (a non-finite weight).
    """
    if not len(pairs):
        raise DomainError("curve pairs must be nonempty")
    if pairs.n != model.n:
        raise ShapeError(f"curve pairs have N={pairs.n}, model expects {model.n}")
    if config.epochs == 0:
        return model, []

    if model.scaler_fitted:
        mean, std = model.feature_mean, model.feature_std
    else:
        mean, std = pairs.features.mean(axis=0), pairs.features.std(axis=0)
        std[std < 1e-12] = 1.0

    x_all, r_all = (a.astype(np.float32) for a in _training_matrices(pairs, mean, std))
    n_samples = x_all.shape[0]
    rng = np.random.default_rng(config.seed)

    n, seed = model.n, model.seed
    w = model.params.astype(np.float32)
    # nothing below reads the input model, so one passed as a temporary is
    # freed here (see the docstring)
    del model
    weights, biases = _layer_views(w, n)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    # one map's gradient at a time: Adam takes each map's step as soon as
    # the backward pass has finished with it, so every map's gradient views
    # start at the head of one buffer the size of the largest map.  The
    # buffer doubles as scratch once v has taken the gradient; m's update
    # needs one block of its own
    dims = layer_dims(n)
    maps = list(zip(dims[:-1], dims[1:]))
    g = np.empty(max((fan_in + 1) * fan_out for fan_in, fan_out in maps), np.float32)
    scratch = np.empty(ADAM_BLOCK, dtype=np.float32)
    d_weights, d_biases, stores, at = [], [], [], 0
    for fan_in, fan_out in maps:
        size = (fan_in + 1) * fan_out
        d_weights.append(g[:fan_in * fan_out].reshape(fan_in, fan_out))
        d_biases.append(g[fan_in * fan_out:size])
        # the map's slices of m, v and w, and its gradient
        stores.append((m[at:at + size], v[at:at + size], w[at:at + size], g[:size]))
        at += size
    step = 0

    def adam(l: int) -> None:
        # Adam in Kingma and Ba's cheaper form, the bias corrections folded
        # into the step size and epsilon: w -= alpha * (m / (sqrt(v) +
        # eps_hat)), in place, one cache-sized block at a time
        m_l, v_l, w_l, g_l = stores[l]
        for lo in range(0, w_l.size, ADAM_BLOCK):
            s = slice(lo, lo + ADAM_BLOCK)
            ms, vs, gs, ws = m_l[s], v_l[s], g_l[s], w_l[s]
            ms *= ADAM_BETA1
            ms += np.multiply(gs, 1.0 - ADAM_BETA1, out=scratch[:gs.size])
            vs *= ADAM_BETA2
            vs += np.multiply(np.square(gs, out=gs), 1.0 - ADAM_BETA2, out=gs)
            np.add(np.sqrt(vs, out=gs), eps_hat, out=gs)
            ws -= np.multiply(np.divide(ms, gs, out=gs), alpha, out=gs)

    loss_history: list[float] = []
    lr_history: list[float] = []
    # a diverging run overflows in the matmuls; the finite-loss check below
    # reports it, so numpy's own warnings would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = config.lr_at(epoch)
            lr_history.append(lr)
            order = rng.permutation(n_samples)
            sse = 0.0
            for lo in range(0, n_samples, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                xb, rb = x_all[batch], r_all[batch]
                mask = rng.random((batch.size, 3 * n)) >= DROPOUT_RATE
                step += 1
                root2 = math.sqrt(1.0 - ADAM_BETA2 ** step)
                alpha = lr * root2 / (1.0 - ADAM_BETA1 ** step)
                eps_hat = ADAM_EPSILON * root2
                loss = _backprop(weights, biases, xb, rb, mask, d_weights, d_biases, adam)
                if not math.isfinite(loss):
                    raise NumericsError(f"training diverged: batch loss {loss} is not "
                                        f"finite (epoch {epoch + 1}, lr {lr})")
                sse += loss * batch.size
            loss_history.append(sse / n_samples)

    meta = {"epochs_run": config.epochs, "final_loss": loss_history[-1],
            "lr_history": lr_history, **_BLAS_META}
    try:
        trained = MappingModel(n=n, params=w, feature_mean=mean, feature_std=std,
                               scaler_fitted=True, seed=seed, training_meta=meta)
    except DomainError as exc:
        raise NumericsError(f"training produced an unusable model: {exc}") from exc
    return trained, loss_history
