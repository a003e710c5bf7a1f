"""Thermal-field mapping model.

A fully connected network with a residual connection maps the measured curve
of a point one layer up: the network consumes the curve's N temperatures
plus four process features and outputs the N-value correction added to the
input curve, so with zero weights the mapping is the identity.  Hidden sizes
are 3N, 6N, 12N, 6N, 3N with ReLU activations, dropout 0.1 sits before the
final N-output affine map, and training runs mini-batch Adam on a mean
squared error loss over scaled temperatures.  The training set is one
:class:`CurvePairs`: row-aligned arrays of input curves, process features
and overlap-truncated target curves, which every training function reads
directly.

The parameters are one float64 vector, and inference, checkpoints and the
loss and gradient functions use it as float64.  :func:`train` computes in
float32 on those float64 weights: activations, gradients and Adam's
moments are float32, and only the weight update itself is float64.

Everything is plain numpy with explicit seeds: identical seeds give
bit-identical trained weights on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ABSOLUTE_ZERO_C,
    MAX_TEMPERATURE_C,
    Curve,
    DomainError,
    MappingFeatures,
    NumericsError,
    ShapeError,
    in_temperature_range,
)

TEMP_SCALE = 1000.0  # degC per network unit; keeps 1500 degC inputs O(1)
DROPOUT_RATE = 0.1
N_AFFINE_MAPS = 6
# elements per Adam slice: one slice of each of its six buffers (~0.9 MB) stays in cache
ADAM_BLOCK = 1 << 15


def _hidden_widths(n: int) -> list[int]:
    return [3 * n, 6 * n, 12 * n, 6 * n, 3 * n]


def layer_dims(n: int) -> list[int]:
    """Sizes along the affine chain: N+4 inputs through the hidden widths to
    the N outputs."""
    return [n + 4] + _hidden_widths(n) + [n]


def _param_size(n: int) -> int:
    dims = layer_dims(n)
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(params: np.ndarray, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The parameter layout: ``params`` holds ``w1, b1, ..., w6, b6`` back to
    back, each weight matrix row-major.  Returns the weight and bias views."""
    if params.shape != (_param_size(n),):
        raise ShapeError(f"N={n} needs {_param_size(n)} parameters in one vector, "
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
    """All weights and biases of the six affine maps in one float64 vector
    ``params``, plus input scaling statistics.

    ``weights[l]`` and ``biases[l]`` are views into ``params``; weight
    ``weights[l][i, j]`` connects input ``i`` of map ``l`` to its output
    ``j``.  A model is treated as immutable once returned by
    :func:`init_model` or :func:`train`.
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
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        self.weights, self.biases = _layer_views(self.params, self.n)

    def copy(self) -> "MappingModel":
        return replace(
            self,
            params=self.params.copy(),
            feature_mean=self.feature_mean.copy(),
            feature_std=self.feature_std.copy(),
            training_meta=dict(self.training_meta),
        )


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch Adam training schedule."""

    epochs: int = 500
    batch_size: int = 256
    initial_lr: float = 0.001
    lr_decay_ratio: float = 0.5
    lr_decay_epochs: tuple[int, ...] = (100, 200, 300, 400)
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.initial_lr <= 0.0:
            raise DomainError(f"initial_lr must be positive, got {self.initial_lr}")

    def lr_at(self, epoch_index: int) -> float:
        """Learning rate used during the 0-indexed epoch: the initial rate
        shrunk once for every decay epoch already completed."""
        decays = sum(1 for d in self.lr_decay_epochs if d <= epoch_index)
        return self.initial_lr * self.lr_decay_ratio ** decays


@dataclass(frozen=True, eq=False)
class CurvePairs:
    """Supervised curve pairs as three row-aligned, read-only float64
    arrays: row i holds a lower point's curve (``inputs``, P x N), the four
    :class:`MappingFeatures` of its source layer (``features``, P x 4) and
    the upper point's curve truncated to the overlap (``targets``, P x N).
    ``len(pairs)`` is P; ``pairs[rows]`` (a slice or an index array) is the
    CurvePairs of those rows.  Values are checked as a :class:`Curve` and
    :class:`MappingFeatures` check theirs."""

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
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    model = MappingModel(
        n=n,
        params=np.zeros(_param_size(n)),
        feature_mean=np.zeros(4),
        feature_std=np.ones(4),
        scaler_fitted=False,
        seed=seed,
    )
    for w in model.weights:
        bound = np.sqrt(1.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def param_count(model: MappingModel) -> int:
    """Exact number of scalar weights and biases."""
    return model.params.size


def _scale_features(model: MappingModel, features: np.ndarray) -> np.ndarray:
    return (features - model.feature_mean) / model.feature_std


def _net_forward(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
                 dropout_mask: np.ndarray | None = None):
    """Scaled network output plus the intermediate activations needed for
    backpropagation.  ``x`` is (batch, N+4); the arithmetic runs in the
    dtype of the weights and ``x`` (float64 for inference, float32 in
    :func:`train`)."""
    pre, post = [], []
    h = x
    for l in range(N_AFFINE_MAPS - 1):
        z = h @ weights[l] + biases[l]
        h = np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
    if dropout_mask is not None:
        h = h * dropout_mask / (1.0 - DROPOUT_RATE)
        post[-1] = h
    out = h @ weights[-1] + biases[-1]
    return out, pre, post


def _assemble_input(model: MappingModel, temps: np.ndarray,
                    features: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [temps / TEMP_SCALE, _scale_features(model, features)], axis=-1
    )


def forward_raw(model: MappingModel, temps: np.ndarray,
                features: np.ndarray) -> np.ndarray:
    """Batched inference on plain arrays: (B, N) curve temperatures plus
    (B, 4) features to (B, N) predicted temperatures in degC.

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
    x = _assemble_input(model, temps, features)
    out, _, _ = _net_forward(model.weights, model.biases, x)
    return out * TEMP_SCALE + temps


def forward_many(model: MappingModel, curves: list[Curve],
                 features: list[MappingFeatures]) -> list[Curve]:
    """Batched inference over many curves in one matrix pass.  Output outside
    the range a :class:`Curve` accepts (not finite, at or below absolute
    zero, at or above MAX_TEMPERATURE_C) is the model's fault (say, a
    diverged training run) and raises NumericsError."""
    if len(curves) != len(features):
        raise ShapeError("curves and features must pair up one-to-one")
    if not curves:
        return []
    if any(c.n != model.n for c in curves):
        raise ShapeError(f"all curves must have N={model.n}")
    temps = np.stack([c.temps for c in curves])
    feats = np.stack([f.as_array() for f in features])
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        preds = forward_raw(model, temps, feats)
    if not in_temperature_range(preds):
        raise NumericsError(f"the mapping model predicts non-finite temperatures or "
                            f"temperatures outside ({ABSOLUTE_ZERO_C}, "
                            f"{MAX_TEMPERATURE_C:g}) degC; retrain it")
    return [
        Curve(preds[i], curves[i].duration, curves[i].curve_index)
        for i in range(len(curves))
    ]


def _training_matrices(model: MappingModel, pairs: CurvePairs):
    x = _assemble_input(model, pairs.inputs, pairs.features)
    # regression target of the network: the scaled residual correction
    r = (pairs.targets - pairs.inputs) / TEMP_SCALE
    return x, r


def mse_loss(model: MappingModel, pairs: CurvePairs) -> float:
    """Training loss on scaled targets with dropout disabled."""
    x, r = _training_matrices(model, pairs)
    out, _, _ = _net_forward(model.weights, model.biases, x)
    return float(np.mean((out - r) ** 2))


def loss_gradients(model: MappingModel, pairs: CurvePairs,
                   dropout_mask: np.ndarray | None = None):
    """Analytic gradients of the batch MSE with respect to every weight and
    bias, via backpropagation.  Returns (weight grads, bias grads, loss); the
    gradients are views into one flat vector laid out like ``params``."""
    x, r = _training_matrices(model, pairs)
    d_weights, d_biases = _layer_views(np.empty_like(model.params), model.n)
    loss = _backprop(model.weights, model.biases, x, r, dropout_mask, d_weights, d_biases)
    return d_weights, d_biases, loss


def _backprop(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
              r: np.ndarray, dropout_mask: np.ndarray | None,
              d_weights: list[np.ndarray], d_biases: list[np.ndarray]) -> float:
    """Writes the batch gradients into ``d_weights`` / ``d_biases`` and
    returns the batch loss, computed in the dtype of the arrays passed."""
    out, pre, post = _net_forward(weights, biases, x, dropout_mask)
    diff = out - r
    loss = float(np.mean(diff ** 2))

    grad = (2.0 / diff.size) * diff
    np.matmul(post[-1].T, grad, out=d_weights[-1])
    grad.sum(axis=0, out=d_biases[-1])
    grad = grad @ weights[-1].T
    if dropout_mask is not None:
        grad = grad * dropout_mask / (1.0 - DROPOUT_RATE)
    for l in range(N_AFFINE_MAPS - 2, -1, -1):
        grad = grad * (pre[l] > 0.0)
        below = post[l - 1] if l > 0 else x
        np.matmul(below.T, grad, out=d_weights[l])
        grad.sum(axis=0, out=d_biases[l])
        if l > 0:
            grad = grad @ weights[l].T
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

    The forward and backward passes, the gradients and Adam's moments are
    float32; the weights stay float64 (master weights), and each step's
    float32 update is subtracted from them before a float32 shadow copy is
    refreshed for the next batch.  The returned model is float64 like any
    other, so checkpoints and inference do not change.  Returns the trained
    model and the per-epoch loss history; a non-finite batch loss (which
    float32 reaches above about 3.4e38) or trained weight raises
    NumericsError.
    """
    if not len(pairs):
        raise DomainError("curve pairs must be nonempty")
    if pairs.n != model.n:
        raise ShapeError(f"curve pairs have N={pairs.n}, model expects {model.n}")
    if config.epochs == 0:
        return model, []

    out = model.copy()
    if not out.scaler_fitted:
        std = pairs.features.std(axis=0)
        std[std < 1e-12] = 1.0
        out.feature_mean = pairs.features.mean(axis=0)
        out.feature_std = std
        out.scaler_fitted = True

    x_all, r_all = (a.astype(np.float32) for a in _training_matrices(out, pairs))
    n_samples = x_all.shape[0]
    rng = np.random.default_rng(config.seed)

    params = out.params
    shadow = params.astype(np.float32)
    weights, biases = _layer_views(shadow, out.n)
    m = np.zeros_like(shadow)
    v = np.zeros_like(shadow)
    # the gradient buffer doubles as scratch once v has taken the step's
    # gradient; with `work` these are the only full-size temporaries
    g = np.empty_like(shadow)
    work = np.empty_like(shadow)
    d_weights, d_biases = _layer_views(g, out.n)
    blocks = [slice(lo, lo + ADAM_BLOCK) for lo in range(0, params.size, ADAM_BLOCK)]
    step = 0

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
                mask = rng.random((batch.size, 3 * out.n)) >= DROPOUT_RATE
                loss = _backprop(weights, biases, xb, rb, mask, d_weights, d_biases)
                if not math.isfinite(loss):
                    raise NumericsError(f"training diverged: batch loss {loss} is not "
                                        f"finite (epoch {epoch + 1}, lr {lr})")
                sse += loss * batch.size
                step += 1
                correct1 = 1.0 - config.beta1 ** step
                correct2 = 1.0 - config.beta2 ** step
                # params -= lr * (m / correct1) / (sqrt(v / correct2) + epsilon),
                # in place, in the same elementwise order as the unfused update,
                # one cache-sized block at a time; the float32 step goes onto
                # the float64 weights, and the float32 copy the next batch
                # reads is refreshed while the block is still in cache
                for s in blocks:
                    ms, vs, gs, ws = m[s], v[s], g[s], work[s]
                    ms *= config.beta1
                    ms += np.multiply(gs, 1.0 - config.beta1, out=ws)
                    vs *= config.beta2
                    vs += np.multiply(np.square(gs, out=gs), 1.0 - config.beta2, out=gs)
                    np.multiply(np.divide(ms, correct1, out=ws), lr, out=ws)
                    np.add(np.sqrt(np.divide(vs, correct2, out=gs), out=gs),
                           config.epsilon, out=gs)
                    params[s] -= np.divide(ws, gs, out=ws)
                    shadow[s] = params[s]
            loss_history.append(sse / n_samples)
    if not np.isfinite(params).all():
        raise NumericsError("training produced non-finite weights")

    out.training_meta = {
        "epochs_run": config.epochs,
        "final_loss": loss_history[-1],
        "lr_history": lr_history,
    }
    return out, loss_history
