#!/usr/bin/env python3
"""Reconstruct a full layer from a handful of points.

Profiles of one layer are stacked into a 5N x M snapshot matrix and reduced
by SVD under the 99% energy criterion; an extreme learning machine then maps
relative delay to the retained basis coefficients.  Any point on the layer is
reconstructed as basis times predicted coefficients, in well under the online
time budget.
"""

import time

import numpy as np

from thermoseer import (
    ProcessSettings,
    SynthParams,
    build_profile_matrix,
    evaluate,
    fit_layer,
    generate_wall,
    pod_decompose,
    reconstruct_profile,
)

settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40,
                                 layer_print_time=20.5, deposition_rate=52.8)
wall = generate_wall(settings, SynthParams(seed=42), points_per_layer=7, n=100)

layer = 20
profiles = wall.profiles_on(layer)
inputs = profiles[0::2]     # measured: points 1, 3, 5, 7
held_out = profiles[1::2]   # reconstructed: points 2, 4, 6

matrix, delays = build_profile_matrix(inputs)
print(f"snapshot matrix: {matrix.shape[0]} x {matrix.shape[1]} "
      f"(delays {np.round(delays, 2)} s)")
basis, rows, m_star, singular_values = pod_decompose(matrix)
energy = np.cumsum(singular_values ** 2) / np.sum(singular_values ** 2)
print(f"singular values: {np.round(singular_values, 2)}")
print(f"energy shares:   {np.round(energy, 6)}")
print(f"retained bases m* = {m_star} (99% energy criterion)")

t0 = time.perf_counter()
recon = fit_layer(inputs)
preds = [reconstruct_profile(recon, p.point) for p in held_out]
elapsed = time.perf_counter() - t0
print(f"\nbuild + ELM train + {len(preds)} reconstructions: {elapsed * 1e3:.2f} ms")

report = evaluate(preds, held_out)
for point, value in report.per_point:
    print(f"  point at {point.axial_distance:5.1f} mm: REOP {value:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    truth = held_out[1]
    pred = preds[1]
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(truth.temps.reshape(-1), label="oracle", lw=1.0)
    ax.plot(pred.temps.reshape(-1), "--", label="reconstruction", lw=1.0)
    ax.set_xlabel("stacked sample index (5N)")
    ax.set_ylabel("temperature, degC")
    ax.set_title(f"held-out point at {truth.point.axial_distance:.0f} mm, layer {layer}")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo03_reconstruction.png", dpi=120)
    print("\nsaved demo03_reconstruction.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
