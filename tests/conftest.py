import numpy as np
import pytest

from thermoseer.core import DwellSchedule, PointId, ProcessSettings, Profile
from thermoseer.reconstruct import (
    LayerReconstruction,
    build_profile_matrix,
    elm_train,
    pod_decompose,
)


@pytest.fixture
def settings():
    # Mirrors the first simulation-style wall: TS 8 mm/s, WFR 3 m/min,
    # 160 mm layers, t_layer 20.5 s, geometric DR 52.8 mm^3/s.
    return ProcessSettings(
        travel_speed=8.0,
        wire_feed_rate=3.0,
        wire_diameter=1.2,
        layer_length=160.0,
        layer_thickness=1.5,
        layer_print_time=20.5,
        deposition_rate=52.8,
        interpass_target=200.0,
        num_layers=40,
    )


@pytest.fixture
def schedule(settings):
    return DwellSchedule(tuple(30.0 + 0.5 * i for i in range(settings.num_layers)))


def constant_profile(value, n=20, layer=3, distance=40.0, travel_speed=8.0, durations=None):
    if durations is None:
        durations = [50.0 + 2.0 * k for k in range(5)]
    point = PointId.from_distance(layer, distance, travel_speed)
    return Profile(point, np.full((5, n), float(value)), durations)


def random_positive_profile(rng, n=20, layer=3, distance=40.0, low=100.0, high=1500.0):
    point = PointId.from_distance(layer, distance, 8.0)
    return Profile(point, rng.uniform(low, high, size=(5, n)),
                   [50.0 + 2.0 * k for k in range(5)])


def layer_at_threshold(profiles, energy_threshold, seed=0):
    """The layer :func:`~thermoseer.reconstruct.fit_layer` builds, with the
    POD kept at ``energy_threshold`` and the ELM's hidden layer drawn from
    ``seed`` instead of the paper's 99% and seed 0."""
    matrix, delays = build_profile_matrix(profiles)
    basis, rows, _, _ = pod_decompose(matrix, energy_threshold)
    reference = min(profiles, key=lambda p: p.point.relative_delay)
    return LayerReconstruction(basis, elm_train(delays, rows, seed=seed),
                               profiles[0].point.layer, reference.durations,
                               (float(delays[0]), float(delays[-1])))
