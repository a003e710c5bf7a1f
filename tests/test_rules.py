"""The three rules every input of the online step holds: its profiles lie on
one layer, they share one N, and each layer and distance lies inside the
wall.  Each rule is raised from one function in ``thermoseer.core``
(``one_layer``, ``one_n`` with its stacking form ``stack_temps``, and
``ProcessSettings.check_layer`` / ``check_distance``), so every public entry
that takes such an input raises one error class with one message."""

import ast
import pathlib
import re

import numpy as np
import pytest

from thermoseer import core
from thermoseer.core import (
    DomainError,
    PointId,
    ProcessSettings,
    Profile,
    ShapeError,
    WallDataset,
    deposition_time,
    mapping_features,
    stack_temps,
)
from thermoseer.mapping import init_model
from thermoseer.pipeline import (
    evaluate,
    extract_curve_pairs,
    predict_next_layer,
    predict_point,
)
from thermoseer.reconstruct import build_profile_matrix, fit_layer
from thermoseer.synthgen import SynthParams, analytic_curve, generate_wall, point_trace

N = 20
SETTINGS = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, layer_print_time=20.5,
                                 deposition_rate=52.8)


def zero_model(n):
    model = init_model(n, seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.scaler_fitted = True
    return model


@pytest.fixture(scope="module")
def wall():
    return generate_wall(SETTINGS, SynthParams(seed=5), points_per_layer=7, n=N)


def raised(call):
    """The error ``call`` raises, which must be a package error."""
    with pytest.raises(core.ThermoseerError) as info:
        call()
    return info.value


def moved(profile, layer=None, distance=None, n=None):
    """``profile`` with another layer, distance or N (its first ``n`` samples)."""
    point = profile.point
    layer = point.layer if layer is None else layer
    distance = point.axial_distance if distance is None else distance
    return Profile(PointId.from_distance(layer, distance, SETTINGS.travel_speed),
                   profile.temps[:, :n], profile.durations)


ONE_LAYER = {
    "predict_next_layer": lambda w, two: predict_next_layer(
        zero_model(N), two, w.settings, w.schedule),
    "fit_layer": lambda w, two: fit_layer(two),
    "build_profile_matrix": lambda w, two: build_profile_matrix(two),
    "point_trace": lambda w, two: point_trace(
        SynthParams(), w.settings, w.schedule, [p.point for p in two]),
    "analytic_curve": lambda w, two: analytic_curve(
        SynthParams(), w.settings, w.schedule, [p.point for p in two], 1, np.zeros(3)),
}


@pytest.mark.parametrize("entry", ONE_LAYER)
def test_profiles_of_two_layers_raise_one_error(wall, entry):
    two = wall.profiles_on(3)[:3] + wall.profiles_on(4)[3:]
    error = raised(lambda: ONE_LAYER[entry](wall, two))
    assert type(error) is DomainError
    assert str(error) == "need the points of one layer, got layers [3, 4]"


ONE_N = {
    "WallDataset": lambda w, mixed: WallDataset(w.settings, w.schedule, mixed),
    "predict_next_layer": lambda w, mixed: predict_next_layer(
        zero_model(N), mixed, w.settings, w.schedule),
    "evaluate predictions": lambda w, mixed: evaluate(mixed, w.profiles_on(5)),
    "evaluate truth": lambda w, mixed: evaluate(w.profiles_on(5), mixed),
    "extract_curve_pairs": lambda w, mixed: extract_curve_pairs(
        [w, generate_wall(SETTINGS, SynthParams(seed=6), points_per_layer=3, n=N // 2)]),
    "build_profile_matrix": lambda w, mixed: build_profile_matrix(mixed),
}


@pytest.mark.parametrize("entry", ONE_N)
def test_profiles_of_two_n_raise_one_error(wall, entry):
    on_five = wall.profiles_on(5)
    # not the first profile, whose N the others are held to
    mixed = on_five[:2] + [moved(on_five[2], n=N // 2)] + on_five[3:]
    error = raised(lambda: ONE_N[entry](wall, mixed))
    assert type(error) is ShapeError
    assert str(error) == f"profiles have N [{N // 2}], expected {N}"


def test_stacked_block_is_the_inverse_of_of_block(wall):
    profiles = wall.profiles_on(4)
    block = stack_temps(profiles, N)
    assert block.shape == (len(profiles), 5, N) and block.flags.c_contiguous
    again = Profile.of_block([p.point for p in profiles], block,
                             [p.durations for p in profiles])
    assert all(np.array_equal(a.temps, b.temps) for a, b in zip(again, profiles))
    assert stack_temps([], N).shape == (0, 5, N)


LAYER_MESSAGE = "layer 13 outside 1..12"
DISTANCE_MESSAGE = "axial_distance 161.0 outside 0..160.0"
WALL_RANGE = {
    "WallDataset layer": (LAYER_MESSAGE, lambda w: WallDataset(
        w.settings, w.schedule, [*w.profiles, moved(w.profiles[0], layer=13)])),
    "WallDataset distance": (DISTANCE_MESSAGE, lambda w: WallDataset(
        w.settings, w.schedule, [*w.profiles, moved(w.profiles[0], distance=161.0)])),
    "deposition_time layer": (LAYER_MESSAGE, lambda w: deposition_time(
        w.schedule, w.settings, 13, 20.0)),
    "deposition_time distance": (DISTANCE_MESSAGE, lambda w: deposition_time(
        w.schedule, w.settings, 2, 161.0)),
    "mapping_features": (LAYER_MESSAGE, lambda w: mapping_features(
        w.settings, w.schedule, 13)),
    "predict_point": (DISTANCE_MESSAGE, lambda w: predict_point(predict_next_layer(
        zero_model(N), w.profiles_on(4), w.settings, w.schedule), 161.0, w.settings)),
    "predict_next_layer past the top": (LAYER_MESSAGE, lambda w: predict_next_layer(
        zero_model(N), [moved(p, layer=12) for p in w.profiles_on(4)],
        w.settings, w.schedule)),
}


@pytest.mark.parametrize("entry", WALL_RANGE)
def test_a_layer_or_distance_outside_the_wall_raises_one_error(wall, entry):
    message, call = WALL_RANGE[entry]
    error = raised(lambda: call(wall))
    assert type(error) is DomainError
    assert str(error) == message


# the messages of the three rules, and of the copies they replaced
RULE_MESSAGES = re.compile(r"points of one layer|span layers|\bN \{|share (one )?N|disagree on N"
                           r"|outside [01]\.\.|beyond layer length|the wall has")


def test_only_core_raises_the_rules():
    package = pathlib.Path(core.__file__).parent
    copies = []
    for path in sorted(package.glob("*.py")):
        if path.name == "core.py":
            continue
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None and \
                    RULE_MESSAGES.search(ast.get_source_segment(source, node)):
                copies.append(f"{path.name}:{node.lineno}")
    assert copies == []
