"""The rules every input of the online step and of the generator holds.

Three rules hold a profile set: its profiles lie on one layer, they share
one N, and each layer and distance lies inside the wall.  Each is raised
from one function in ``thermoseer.core`` (``one_layer``, ``one_n`` with its
stacking form ``stack_temps``, and ``ProcessSettings.check_layer`` /
``check_distance``).  Two rules hold single values: a count, index or seed
is a whole number at or above its least value (``core.whole_number``), and
a physical quantity, duration or threshold is a finite real number that is
any, >= 0 or > 0 (``core.real_number``).  So every public entry that takes
such an input raises one error class with one message, and only ``core``
raises it."""

import ast
import dataclasses
import functools
import math
import pathlib
import re
from collections.abc import Callable
from typing import NamedTuple

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
    wire_deposition_rate,
)
from thermoseer.mapping import MappingModel, TrainConfig, init_model, param_size
from thermoseer.pipeline import (
    evaluate,
    extract_curve_pairs,
    predict_layer,
    predict_next_layer,
    predict_point,
    render_field,
)
from thermoseer.preprocess import resample, split_experiment
from thermoseer.reconstruct import (
    ElmModel,
    LayerReconstruction,
    build_profile_matrix,
    elm_train,
    fit_layer,
    pod_decompose,
)
from thermoseer.synthgen import (
    SynthParams,
    analytic_curve,
    emulate_pyrometer,
    generate_experiment_wall,
    generate_wall,
    point_trace,
    solve_dwell,
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


@functools.cache
def rules_wall():
    """The wall the tables' calls read."""
    return generate_wall(SETTINGS, SynthParams(seed=5), points_per_layer=7, n=N)


@pytest.fixture(scope="module")
def wall():
    return rules_wall()


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
    "solve_dwell past the top": (LAYER_MESSAGE, lambda w: solve_dwell(
        SynthParams(), w.settings, 13)),
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
    wall = rules_wall()
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
    "solve_dwell layer": ("layer", 1, lambda v: nothing(solve_dwell(SynthParams(), SMALL, v))),
    "extract_curve_pairs layers": ("layer", 1, lambda v: nothing(extract_curve_pairs(
        rules_wall(), [2, v]))),
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


@pytest.mark.parametrize("layer", [2.5, 3.0, np.float64(3.0), True, 0, -1])
def test_predict_layer_takes_a_whole_number_before_its_first_layer_rule(wall, layer):
    error = raised(lambda: predict_layer(zero_model(N), wall, layer))
    assert type(error) is DomainError
    assert str(error) == f"layer must be a whole number >= 1, got {layer!r}"


@given(value=st.integers())
def test_whole_number_returns_any_int_at_or_above_low(value):
    if value >= -5:
        assert whole_number("k", value, -5) == value
    else:
        with pytest.raises(DomainError, match=r"^k must be a whole number >= -5, got "):
            whole_number("k", value, -5)


class Real(NamedTuple):
    """A public entry that takes a physical quantity, duration or threshold:
    the name it checks the value by, the bound it holds (None for any
    finite value, ">= 0" or "> 0"), and a call with the value put in, which
    returns what the entry stores of it (or None where it stores nothing).
    ``scale`` brings 2.5 and 3 under an upper bound of the entry's own;
    ``least`` is the least value a range test of its own takes, where that
    is above the rule's bound."""

    name: str
    bound: str | None
    call: Callable
    scale: float = 1.0
    least: float = -math.inf


# settings under which every float field may be as small as 0.25: a short
# layer keeps the travel time (0.25 s) under any print time the tables try
ROOMY = dataclasses.replace(SETTINGS, layer_length=2.0)
POINT = PointId(2, 20.0, 2.5)
CURVES = np.full((5, 2), 300.0)
ELM = ElmModel(np.zeros(4), np.zeros(4), np.zeros((4, 1)), 0.0, 1.0)


def durations(first):
    return (first, 1.0, 1.0, 1.0, 1.0)


def layer_of(durations=(1.0,) * 5, delay_range=(1.0, 4.0)):
    """A one-mode reconstruction of an N = 2 layer."""
    return LayerReconstruction(np.eye(10, 1), ELM, 3, durations, delay_range)


def elm_of(delay_mean=0.0, delay_std=1.0):
    return ElmModel(ELM.hidden_weights, ELM.hidden_biases, ELM.output_weights,
                    delay_mean, delay_std)


def experiment_wall(**kwargs):
    return generate_experiment_wall(SMALL, SynthParams(), points_per_layer=2, n=3, **kwargs)


# every public entry that takes a physical quantity, duration or threshold
REAL_NUMBERS = {
    **{f"ProcessSettings {name}": Real(name, "> 0", functools.partial(
        lambda name, v: getattr(dataclasses.replace(ROOMY, **{name: v}), name), name))
       for name in ("travel_speed", "wire_feed_rate", "wire_diameter", "layer_length",
                    "layer_thickness", "layer_print_time", "deposition_rate",
                    "interpass_target")},
    "ProcessSettings.build travel_speed": Real("travel_speed", "> 0", lambda v: (
        ProcessSettings.build(travel_speed=v).travel_speed)),
    "ProcessSettings.build layer_length": Real("layer_length", "> 0", lambda v: (
        ProcessSettings.build(layer_length=v).layer_length)),
    "wire_deposition_rate wire_feed_rate": Real("wire_feed_rate", "> 0", lambda v: (
        nothing(wire_deposition_rate(v, 1.2)))),
    "wire_deposition_rate wire_diameter": Real("wire_diameter", "> 0", lambda v: (
        nothing(wire_deposition_rate(3.0, v)))),
    "ProcessSettings.check_distance": Real("axial_distance", None, lambda v: (
        SETTINGS.check_distance(v)), least=0.0),
    "DwellSchedule": Real("dwell[2]", ">= 0", lambda v: DwellSchedule(
        (10.0, v)).dwell[1]),
    "PointId axial_distance": Real("axial_distance", ">= 0", lambda v: PointId(
        1, v, 0.0).axial_distance),
    "PointId relative_delay": Real("relative_delay", ">= 0", lambda v: PointId(
        1, 0.0, v).relative_delay),
    "PointId.from_distance axial_distance": Real(
        "axial_distance", ">= 0", lambda v: PointId.from_distance(
            1, v, 8.0).axial_distance),
    "PointId.from_distance travel_speed": Real(
        "travel_speed", "> 0", lambda v: nothing(PointId.from_distance(1, 1.0, v))),
    "Profile": Real("curve duration", "> 0", lambda v: Profile(
        POINT, CURVES, durations(v)).durations[0]),
    "Profile.of_block": Real("curve duration", "> 0", lambda v: Profile.of_block(
        [POINT], CURVES[np.newaxis], [durations(v)])[0].durations[0]),
    "LayerReconstruction durations": Real("curve duration", "> 0", lambda v: (
        layer_of(durations=durations(v)).durations[0])),
    "LayerReconstruction delay_range lo": Real("delay_range[0]", None, lambda v: (
        layer_of(delay_range=(v, 10.0)).delay_range[0])),
    "LayerReconstruction delay_range hi": Real("delay_range[1]", None, lambda v: (
        layer_of(delay_range=(-10.0, v)).delay_range[1])),
    "ElmModel delay_mean": Real("delay_mean", None, lambda v: (
        elm_of(delay_mean=v).delay_mean)),
    "ElmModel delay_std": Real("delay_std", "> 0", lambda v: (
        elm_of(delay_std=v).delay_std)),
    "TrainConfig initial_lr": Real("initial_lr", "> 0", lambda v: TrainConfig(
        initial_lr=v).initial_lr),
    **{f"SynthParams {name}": Real(name, bound, functools.partial(
        lambda name, v: getattr(SynthParams(**{name: v}), name), name), scale)
       for name, bound, scale in (
           ("ambient", None, 1.0), ("cool_tau0", "> 0", 1.0),
           ("cool_height_gain", ">= 0", 1.0),
           ("substrate_chill", ">= 0", 0.2), ("chill_height", "> 0", 1.0),
           ("reheat_tau", "> 0", 1.0), ("reheat_decay", "> 0", 0.2),
           ("reheat_scale", ">= 0", 1.0), ("dr_gain", ">= 0", 1.0),
           ("delay_gain", ">= 0", 1.0), ("delay_tau_gain", ">= 0", 1.0),
           ("noise_sd", ">= 0", 1.0))},
    # below an ambient of -10 degC, so that peak_base > ambient holds
    "SynthParams peak_base": Real("peak_base", None, lambda v: SynthParams(
        ambient=-10.0, peak_base=v).peak_base),
    "point_trace sample_period": Real("sample_period", "> 0", lambda v: nothing(
        point_trace(SynthParams(), SETTINGS, SCHEDULE, [POINT], v))),
    "point_trace lead_in": Real("lead_in", ">= 0", lambda v: nothing(
        point_trace(SynthParams(), SETTINGS, SCHEDULE, [POINT], 0.5, v))),
    "emulate_pyrometer noise_sd": Real("noise_sd", ">= 0", lambda v: nothing(
        emulate_pyrometer(TRACE, v))),
    "generate_experiment_wall sample_period": Real("sample_period", "> 0", lambda v: (
        experiment_wall(sample_period=v).provenance["sample_period"])),
    "generate_experiment_wall jitter_mm": Real("jitter_mm", ">= 0", lambda v: (
        experiment_wall(jitter_mm=v).provenance["jitter_mm"])),
    "generate_experiment_wall rise_threshold": Real("rise_threshold", "> 0", lambda v: (
        experiment_wall(rise_threshold=v).provenance["rise_threshold"])),
    "split_experiment sample_period": Real("sample_period", "> 0", lambda v: nothing(
        split_experiment(TRACE, v))),
    "split_experiment rise_threshold": Real("rise_threshold", "> 0", lambda v: (
        nothing(split_experiment(TRACE, 0.5, v)))),
    "pod_decompose energy_threshold": Real("energy_threshold", "> 0", lambda v: (
        nothing(pod_decompose(np.eye(6, 2), v))), scale=0.2),
    "render_field local_time": Real("local_time", ">= 0", lambda v: render_field(
        layer_four(), SETTINGS, SCHEDULE, v).local_time),
}

# the rule's three messages, one for each bound
REAL_MESSAGES = {None: "{} must be finite, got {!r}",
                 ">= 0": "{} must be >= 0 and finite, got {!r}",
                 "> 0": "{} must be positive and finite, got {!r}"}


def is_real(value):
    """Whether ``value`` is an int, a float or a numpy integer or floating
    scalar, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


def within(bound, value):
    """Whether the rule takes ``value`` under ``bound``: a finite real
    value that is any, >= 0 or > 0."""
    try:
        number = float(value) if is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    return math.isfinite(number) and (
        bound is None or number > 0 or (bound == ">= 0" and number == 0))


def check_real_number(entry, value):
    """The entry takes ``value`` (scaled into its own range) and stores it
    as a plain float, or raises exactly DomainError with the one message of
    its bound; no other error escapes."""
    spec = REAL_NUMBERS[entry]
    given = value * spec.scale if within(None, value) and spec.scale != 1.0 else value
    try:
        stored, error = spec.call(given), None
    except core.ThermoseerError as raised_error:
        stored, error = None, raised_error
    if within(spec.bound, given) and given >= spec.least:
        assert error is None, error
        assert stored is None or (type(stored) is float and stored == float(given))
    else:
        assert type(error) is DomainError, f"{given!r} was taken"
        if within(spec.bound, given):  # below the entry's own range
            assert str(error) == f"{spec.name} {given} outside 0..{SETTINGS.layer_length}"
        else:
            assert str(error) == REAL_MESSAGES[spec.bound].format(spec.name, given)


REALS = {"2.5": 2.5, "3": 3, "float32 2.5": np.float32(2.5), "int64 3": np.int64(3),
         "0.0": 0.0, "-0.5": -0.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
         "True": True, "'2.5'": "2.5", "None": None}


@pytest.mark.parametrize("value", REALS)
@pytest.mark.parametrize("entry", REAL_NUMBERS)
def test_a_quantity_duration_or_threshold_is_a_finite_real_number(entry, value):
    check_real_number(entry, REALS[value])


@hsettings(max_examples=200, deadline=None)
@given(entry=st.sampled_from(list(REAL_NUMBERS)),
       value=st.one_of(
           # multiples of 0.25 in [-4, 4]: no entry is asked for a huge trace
           st.integers(-16, 16).map(lambda k: k / 4),
           st.integers(-16, 16).map(lambda k: np.float32(k / 4)),
           st.integers(-4, 4), st.integers(-4, 4).map(np.int64),
           st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]),
           st.booleans(), st.text(max_size=2), st.none()))
def test_any_value_is_taken_as_a_float_or_refused_with_the_one_message(entry, value):
    check_real_number(entry, value)


@given(value=st.floats() | st.integers())
def test_real_number_returns_any_finite_value_as_a_float(value):
    for bound in REAL_MESSAGES:
        if within(bound, value):
            number = core.real_number("x", value, bound)
            assert type(number) is float and number == float(value)
        else:
            with pytest.raises(DomainError) as info:
                core.real_number("x", value, bound)
            assert str(info.value) == REAL_MESSAGES[bound].format("x", value)


# the messages of the rules, and of the copies they replaced.  The
# real-number wordings pass over the checks that stay outside the rule: the
# array checks of MappingModel.feature_mean and feature_std and of
# overlap_truncate_rows' lower durations, cli._typed's finite config value
# ("key ... must be finite") and cli._seed's option text ("a seed must be")
RULE_MESSAGES = re.compile(
    r"points of one layer|span layers|\bN \{|share (one )?N|disagree on N"
    r"|outside [01]\.\.|beyond layer length|the wall has"
    r"|whole number|positive integer|[\"'](layer and )?(n|n_hidden|n_positions|num_layers"
    r"|points_per_layer|layer|curve_index|seed|epochs|batch_size) must be"
    r"|sample_period must"
    r"|(?<!feature_mean )(?<!feature_std )(?<!\{key!r\} )"
    r"must be (positive and |>= 0 and )?finite, got"
    r"|positive finite number|(?<!lower durations )(?<!a seed )must be (positive|>= 0), got"
    r"|time constants must be positive|finite and >= 0")


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
