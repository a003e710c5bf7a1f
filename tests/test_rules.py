"""The rules every input of the online step and of the generator holds.

Three rules hold a profile set: its profiles lie on one layer, they share
one N, and each layer and distance lies inside the wall.  Each is raised
from one function in ``thermoseer.core`` (``one_layer``, ``one_n`` with its
stacking form ``stack_temps``, and ``ProcessSettings.check_layer`` /
``check_distance``).  Two rules hold single values: a count, index or seed
is a whole number at or above its least value (``core.whole_number``), and
a raw trace's sample period is positive and finite
(``core.check_sample_period``).  So every public entry that takes such an
input raises one error class with one message, and only ``core`` raises
it."""

import ast
import dataclasses
import functools
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from thermoseer import core
from thermoseer.core import (
    DomainError,
    DwellSchedule,
    PointId,
    ProcessSettings,
    Profile,
    ShapeError,
    WallDataset,
    curve_duration,
    deposition_time,
    mapping_features,
    stack_temps,
    whole_number,
)
from thermoseer.mapping import MappingModel, TrainConfig, init_model, param_size
from thermoseer.pipeline import (
    evaluate,
    extract_curve_pairs,
    predict_next_layer,
    predict_point,
    render_field,
)
from thermoseer.preprocess import resample, split_experiment
from thermoseer.reconstruct import build_profile_matrix, elm_train, fit_layer
from thermoseer.synthgen import (
    SynthParams,
    analytic_curve,
    emulate_pyrometer,
    generate_experiment_wall,
    generate_wall,
    point_trace,
)

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


SMALL = dataclasses.replace(SETTINGS, num_layers=8)
SCHEDULE = DwellSchedule((10.0,) * 12)
TRACE = np.arange(8.0)


@functools.cache
def layer_four():
    """A prediction of layer 5 from layer 4 of the test wall."""
    wall = generate_wall(SETTINGS, SynthParams(seed=5), points_per_layer=7, n=N)
    return predict_next_layer(zero_model(N), wall.profiles_on(4), SETTINGS, wall.schedule)


def nothing(result):
    """What an entry that stores no count returns to the table."""
    return None


def model_of(n=3, seed=0):
    """A zero model whose params fit ``n`` wherever ``n`` is an N the model takes."""
    try:
        size = param_size(n)
    except DomainError:
        size = param_size(3)
    return MappingModel(n=n, params=np.zeros(size), feature_mean=np.zeros(4),
                        feature_std=np.ones(4), scaler_fitted=False, seed=seed)


# every public entry that takes a count, index or seed: its name, the least
# value it takes, and a call with that value put in, which returns what the
# entry stores of it (or None where it stores nothing)
WHOLE_NUMBERS = {
    "ProcessSettings num_layers": ("num_layers", 1, lambda v: dataclasses.replace(
        SETTINGS, num_layers=v).num_layers),
    "ProcessSettings.build num_layers": ("num_layers", 1, lambda v: ProcessSettings.build(
        num_layers=v).num_layers),
    "ProcessSettings.check_layer": ("layer", 1, lambda v: SETTINGS.check_layer(v)),
    "DwellSchedule.for_layer": ("layer", 1, lambda v: nothing(SCHEDULE.for_layer(v))),
    "PointId layer": ("layer", 1, lambda v: PointId(v, 1.0, 0.125).layer),
    "PointId.from_distance layer": ("layer", 1, lambda v: PointId.from_distance(
        v, 1.0, 8.0).layer),
    "curve_duration layer": ("layer", 1, lambda v: nothing(curve_duration(
        SCHEDULE, SETTINGS, v, 1))),
    "curve_duration curve_index": ("curve_index", 1, lambda v: nothing(curve_duration(
        SCHEDULE, SETTINGS, 1, v))),
    "TrainConfig epochs": ("epochs", 0, lambda v: TrainConfig(epochs=v).epochs),
    "TrainConfig batch_size": ("batch_size", 1, lambda v: TrainConfig(batch_size=v).batch_size),
    "TrainConfig seed": ("seed", 0, lambda v: TrainConfig(seed=v).seed),
    "SynthParams seed": ("seed", 0, lambda v: SynthParams(seed=v).seed),
    "param_size": ("n", 2, lambda v: nothing(param_size(v))),
    "init_model n": ("n", 2, lambda v: init_model(v).n),
    "init_model seed": ("seed", 0, lambda v: init_model(3, seed=v).seed),
    "MappingModel n": ("n", 2, lambda v: model_of(n=v).n),
    "MappingModel seed": ("seed", 0, lambda v: model_of(seed=v).seed),
    "generate_wall n": ("n", 2, lambda v: generate_wall(
        SMALL, SynthParams(), points_per_layer=2, n=v).provenance["n"]),
    "generate_wall points_per_layer": ("points_per_layer", 2, lambda v: generate_wall(
        SMALL, SynthParams(), points_per_layer=v, n=3).provenance["points_per_layer"]),
    "generate_experiment_wall n": ("n", 2, lambda v: generate_experiment_wall(
        SMALL, SynthParams(), points_per_layer=2, n=v).provenance["n"]),
    "generate_experiment_wall points_per_layer": (
        "points_per_layer", 2, lambda v: generate_experiment_wall(
            SMALL, SynthParams(), points_per_layer=v, n=3).provenance["points_per_layer"]),
    "emulate_pyrometer seed": ("seed", 0, lambda v: nothing(emulate_pyrometer(
        TRACE, 1.0, seed=v))),
    "resample": ("n", 2, lambda v: nothing(resample(TRACE, TRACE, np.array([0, 4, 8]), v))),
    "elm_train n_hidden": ("n_hidden", 1, lambda v: nothing(elm_train(
        TRACE[:3], np.ones((3, 1)), n_hidden=v))),
    "elm_train seed": ("seed", 0, lambda v: nothing(elm_train(
        TRACE[:3], np.ones((3, 1)), seed=v))),
    "render_field": ("n_positions", 2, lambda v: nothing(render_field(
        layer_four(), SETTINGS, SCHEDULE, 5.0, n_positions=v))),
}


def whole_number_outcome(entry, value):
    """``(stored, None)`` when the entry takes ``value``, else ``(None,
    (name, low, error))``; an error that is not a package error escapes."""
    name, low, call = WHOLE_NUMBERS[entry]
    try:
        return call(value), None
    except core.ThermoseerError as error:
        return None, (name, low, error)


VALUES = {"3": 3, "int64 3": np.int64(3), "3.0": 3.0, "3.5": 3.5, "True": True,
          "-1": -1, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("entry", WHOLE_NUMBERS)
def test_a_count_index_or_seed_is_a_whole_number(entry, value):
    value = VALUES[value]
    stored, refused = whole_number_outcome(entry, value)
    if value == 3 and type(value) in (int, np.int64):
        assert refused is None, refused
        assert stored is None or (type(stored) is int and stored == 3)
    else:
        assert refused is not None, f"{value!r} was taken"
        name, low, error = refused
        assert type(error) is DomainError
        assert str(error) == f"{name} must be a whole number >= {low}, got {value!r}"


@hsettings(max_examples=150, deadline=None)
@given(entry=st.sampled_from(list(WHOLE_NUMBERS)),
       value=st.one_of(st.integers(-3, 6), st.integers(-3, 6).map(np.int64),
                       st.integers(0, 6).map(np.uint8),
                       st.floats(), st.booleans(), st.text(max_size=2), st.none()))
def test_any_value_is_taken_as_an_int_or_refused_with_the_one_message(entry, value):
    stored, refused = whole_number_outcome(entry, value)
    is_integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if refused is None:
        assert is_integer, f"{value!r} was taken"
        assert stored is None or (type(stored) is int and stored == value)
    else:
        name, low, error = refused
        assert not (is_integer and value >= low)
        assert type(error) is DomainError
        assert str(error) == f"{name} must be a whole number >= {low}, got {value!r}"


@given(value=st.integers())
def test_whole_number_returns_any_int_at_or_above_low(value):
    if value >= -5:
        assert whole_number("k", value, -5) == value
    else:
        with pytest.raises(DomainError, match=r"^k must be a whole number >= -5, got "):
            whole_number("k", value, -5)


SAMPLE_PERIOD = {
    "point_trace": lambda w, period: point_trace(
        SynthParams(), w.settings, w.schedule, [w.profiles_on(2)[0].point], period),
    "generate_experiment_wall": lambda w, period: generate_experiment_wall(
        SMALL, SynthParams(), points_per_layer=2, n=3, sample_period=period),
    "split_experiment": lambda w, period: split_experiment(TRACE, period),
}


@pytest.mark.parametrize("period", [0.0, -0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", SAMPLE_PERIOD)
def test_a_sample_period_that_is_not_positive_and_finite_raises_one_error(
        wall, entry, period):
    error = raised(lambda: SAMPLE_PERIOD[entry](wall, period))
    assert type(error) is DomainError
    assert str(error) == f"sample_period must be positive and finite, got {period!r}"


# the messages of the rules, and of the copies they replaced
RULE_MESSAGES = re.compile(
    r"points of one layer|span layers|\bN \{|share (one )?N|disagree on N"
    r"|outside [01]\.\.|beyond layer length|the wall has"
    r"|whole number|positive integer|[\"'](layer and )?(n|n_hidden|n_positions|num_layers"
    r"|points_per_layer|layer|curve_index|seed|epochs|batch_size) must be"
    r"|sample_period must")


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
