#!/usr/bin/env python3
"""The full online loop: predict the yet-to-print layer's thermal field.

Measured profiles of the printed layer feed the pretrained mapping model;
the mapped profiles are decomposed and an ELM is trained online; the wall's
whole next layer is then available as reconstructed profiles or as rendered
temperature-field frames, all well inside the 0.1 s budget.  The model is
served as the CLI serves it: saved to a checkpoint and loaded back, with
the float32 weights training produced.
"""

import json
import os
import tempfile

import numpy as np

from thermoseer import (
    ProcessSettings,
    SynthParams,
    TrainConfig,
    evaluate,
    extract_curve_pairs,
    generate_wall,
    init_model,
    predict_layer,
    predict_point,
    render_field,
    train,
)
from thermoseer.cli import load_checkpoint, save_checkpoint

settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40,
                                 layer_print_time=20.5, deposition_rate=52.8)
wall = generate_wall(settings, SynthParams(seed=42), points_per_layer=7, n=100)

print("pretraining the mapping model on layers 1..30 ...")
pairs = extract_curve_pairs(wall, layers=list(range(1, 31)))
model, history = train(init_model(100, seed=0), pairs,
                       TrainConfig(epochs=60, batch_size=256, seed=0))
print(f"  {len(pairs)} pairs, final loss {history[-1]:.2e}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.ckpt")
    save_checkpoint(path, model)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = len(fh.read())
    model = load_checkpoint(path)
print(f"  checkpoint payload: {payload:,} bytes of {json.loads(header_line)['dtype']} "
      f"({model.params.size:,} parameters, loaded as {model.params.dtype})")

target = 31
predict_layer(model, wall, target)  # warm the linear-algebra paths once
prediction = predict_layer(model, wall, target)
print(f"\npredicted layer {target} from the measured layer {target - 1}:")
print(f"  mapping  : {prediction.map_seconds * 1e3:6.2f} ms for "
      f"{5 * len(prediction.mapped_profiles)} curves")
print(f"  online ROM: {prediction.reconstruct_seconds * 1e3:6.2f} ms "
      f"(m* = {prediction.reconstruction.m_star})")
print(f"  total    : {prediction.elapsed * 1e3:6.2f} ms")

# score against the oracle at the seven truth points
truth = wall.profiles_on(target)
preds = [predict_point(prediction, p.point.axial_distance, settings) for p in truth]
report = evaluate(preds, truth)
print(f"\nREOP at the {len(truth)} oracle points: "
      f"median {np.median(report.reops()):.4f}, max {max(report.reops()):.4f}")

# temperature field of the layer while it is being printed and much later
for t in (6.0, 93.0):
    frame = render_field(prediction, settings, wall.schedule, t)
    printed = frame.temps > 25.0
    print(f"field at local time {t:5.1f} s: {printed.sum():3d}/160 positions printed, "
          f"hottest {frame.temps.max():7.1f} degC at "
          f"{frame.positions[np.argmax(frame.temps)]:.0f} mm")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for t in (6.0, 30.0, 93.0, 160.0):
        frame = render_field(prediction, settings, wall.schedule, t)
        ax.plot(frame.positions, frame.temps, label=f"t = {t:.0f} s")
    ax.set_xlabel("axial position, mm")
    ax.set_ylabel("temperature, degC")
    ax.set_title(f"reconstructed field of layer {target}")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo04_field.png", dpi=120)
    print("\nsaved demo04_field.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
