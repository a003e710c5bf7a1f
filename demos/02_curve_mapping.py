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
    generate_wall,
    init_model,
    predict_next_layer,
    train,
)

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
    mapped = predict_next_layer(model, wall.profiles_on(layer - 1), settings,
                                wall.schedule).mapped_profiles
    report = evaluate(mapped, wall.profiles_on(layer))
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
