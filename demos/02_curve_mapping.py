#!/usr/bin/env python3
"""Train the residual mapping network and measure what it learns.

The network starts as the identity on the input curve (residual connection,
zero-initialized corrections are tiny), so its starting error equals the raw
curve similarity between layers.  Training on curve pairs teaches it the
systematic differences: the slower cooling one layer up and the re-heat spike
that the truncated target no longer contains.
"""

import numpy as np

from thermoseer import (
    ProcessSettings,
    SynthParams,
    TrainConfig,
    evaluate,
    extract_curve_pairs,
    forward_many,
    generate_wall,
    init_model,
    train,
)
from thermoseer.core import Profile, PointId, mapping_features

settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40,
                                 layer_print_time=20.5, deposition_rate=52.8)
wall = generate_wall(settings, SynthParams(seed=42), points_per_layer=7, n=100)

train_pairs = extract_curve_pairs(wall, layers=list(range(1, 31)))
print(f"training curve pairs from layers 1..30: {len(train_pairs)}")

config = TrainConfig(epochs=60, batch_size=256, seed=0)
model, history = train(init_model(100, seed=0), train_pairs, config)
print(f"loss: first epoch {history[0]:.2e} -> last epoch {history[-1]:.2e}")


def mapped_reop(layer):
    """Median REOP of single-step mapping onto the given layer."""
    lower = wall.profiles_on(layer - 1)
    truth = wall.profiles_on(layer)
    # every curve of the layer below in one (5M, N) block, one feature row each
    temps = np.concatenate([prof.temps for prof in lower])
    feats = np.tile(mapping_features(settings, wall.schedule, layer - 1), (len(temps), 1))
    mapped = forward_many(model, temps, feats).reshape(len(lower), 5, -1)
    preds = [Profile(PointId(layer, prof.point.axial_distance, prof.point.relative_delay),
                     block, prof.durations)
             for prof, block in zip(lower, mapped)]
    report = evaluate(preds, truth)
    return float(np.median(report.reops()))


print("\nmedian mapping REOP on held-out layers:")
for layer in (31, 32, 33, 34, 35):
    print(f"  layer {layer}: {mapped_reop(layer):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(np.arange(1, len(history) + 1), history)
    ax.set_xlabel("epoch")
    ax.set_ylabel("MSE on scaled targets")
    ax.set_title("mapping-model training loss")
    fig.tight_layout()
    fig.savefig("demo02_training.png", dpi=120)
    print("\nsaved demo02_training.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
