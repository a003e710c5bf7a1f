#!/usr/bin/env python3
"""Generate a synthetic thin wall and look at its thermal structure.

The oracle builds, for every interior point of every layer, the first five
print+dwell cycles of its temperature history: a hot deposition peak, an
exponential cool-down toward the interpass target, and a re-heat spike when
the next layer's arc passes above.  Successive layers produce similar curves,
and the similarity grows with height; that structure is what the mapping
model later learns.
"""

import numpy as np

from thermoseer import (
    PointId,
    ProcessSettings,
    SynthParams,
    extract_curve_pairs,
    generate_wall,
    reop_rows,
)

settings = ProcessSettings.build(
    travel_speed=8.0,        # mm/s
    wire_feed_rate=3.0,      # m/min
    layer_length=160.0,      # mm
    layer_thickness=1.5,     # mm
    num_layers=40,
    layer_print_time=20.5,   # s, includes the accel/decel allowance
    deposition_rate=52.8,    # mm^3/s, geometric bead estimate
)
params = SynthParams(seed=42)

wall = generate_wall(settings, params, points_per_layer=7, n=100)
print(f"wall: {len(wall.profiles)} profiles on layers {wall.layers()[0]}..{wall.layers()[-1]}")
print(f"dwell schedule (s): layer 1 = {wall.schedule.for_layer(1):.1f}, "
      f"layer 20 = {wall.schedule.for_layer(20):.1f}, "
      f"layer 40 = {wall.schedule.for_layer(40):.1f}")

# one profile up close
prof = wall.profiles[PointId.from_distance(10, 80.0, settings.travel_speed)]
print("\npoint: layer 10, 80 mm from the layer start")
# a profile is one (5, N) block of temperatures plus the five curve durations
for k, (temps, duration) in enumerate(zip(prof.temps, prof.durations), start=1):
    print(f"  curve {k}: duration {duration:7.1f} s, "
          f"peak {temps.max():7.1f} degC, end {temps[-1]:6.1f} degC")

# curve similarity between successive layers, the mapping model's premise
print("\nmean REOP between curve k of layer i+1 (overlap-truncated) and layer i:")
for layer in (1, 5, 10, 20, 30):
    # a curve pair's target is curve k of layer i+1 truncated to the duration
    # of its input, curve k of layer i; five rows make one point
    pairs = extract_curve_pairs(wall, layers=[layer, layer + 1])
    width = 5 * pairs.n
    values = reop_rows(pairs.targets.reshape(-1, width), pairs.inputs.reshape(-1, width))
    print(f"  layers {layer:>2} -> {layer + 1:>2}: {np.mean(values):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    offsets = np.concatenate([[0.0], np.cumsum(prof.durations)])
    for temps, duration, start in zip(prof.temps, prof.durations, offsets):
        axes[0].plot(start + np.linspace(0.0, duration, prof.n), temps, lw=1.2)
    axes[0].set_xlabel("local time, s")
    axes[0].set_ylabel("temperature, degC")
    axes[0].set_title("five cycles of one point (layer 10, d=80 mm)")

    low = wall.profiles[PointId.from_distance(10, 80.0, settings.travel_speed)]
    up = wall.profiles[PointId.from_distance(11, 80.0, settings.travel_speed)]
    k = 2
    for prof_k, style, label in ((low, "-", "layer 10, curve 3"), (up, "--", "layer 11, curve 3")):
        axes[1].plot(np.linspace(0.0, prof_k.durations[k], prof_k.n), prof_k.temps[k],
                     style, label=label)
    axes[1].set_xlabel("time since cycle start, s")
    axes[1].legend()
    axes[1].set_title("curve pair of successive layers")
    fig.tight_layout()
    fig.savefig("demo01_wall.png", dpi=120)
    print("\nsaved demo01_wall.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
