"""Online thermal-field prediction for unidirectionally printed thin walls.

The package maps measured temperature curves of a printed layer to the
yet-to-print layer with a residual fully connected network, then
reconstructs temperature profiles of arbitrary points on that layer through
a POD reduced-order model whose basis coefficients are regressed by an
extreme learning machine.  A synthetic thermal oracle stands in for
simulation/experiment data so the whole method is trainable and testable
end to end.
"""

from .core import (
    CURVES_PER_PROFILE,
    CheckpointError,
    ConfigError,
    DomainError,
    DwellSchedule,
    HorizonError,
    MetricError,
    NumericsError,
    PairingError,
    PointId,
    ProcessSettings,
    Profile,
    ProtocolError,
    ShapeError,
    ThermoseerError,
    WallDataset,
    curve_duration,
    deposition_time,
    mapping_features,
    reop,
    reop_rows,
    wire_deposition_rate,
)
from .mapping import (
    CurvePairs,
    MappingModel,
    TrainConfig,
    forward_many,
    forward_raw,
    init_model,
    param_count,
    train,
)
from .pipeline import (
    FieldFrame,
    LayerPrediction,
    evaluate,
    extract_curve_pairs,
    mapped_pair_reops,
    predict_layer,
    predict_next_layer,
    predict_point,
    render_field,
    run_benchmark,
)
from .preprocess import (
    resample,
    split_experiment,
)
from .reconstruct import (
    ElmModel,
    LayerReconstruction,
    build_profile_matrix,
    elm_predict,
    elm_train,
    fit_layer,
    pod_decompose,
    reconstruct_profile,
)
from .synthgen import (
    SynthParams,
    emulate_pyrometer,
    generate_experiment_wall,
    generate_wall,
    point_trace,
    solve_dwell,
)

__version__ = "0.1.0"

__all__ = [
    "CURVES_PER_PROFILE",
    "CheckpointError",
    "ConfigError",
    "CurvePairs",
    "DomainError",
    "DwellSchedule",
    "ElmModel",
    "FieldFrame",
    "HorizonError",
    "LayerPrediction",
    "LayerReconstruction",
    "MappingModel",
    "MetricError",
    "NumericsError",
    "PairingError",
    "PointId",
    "ProcessSettings",
    "Profile",
    "ProtocolError",
    "ShapeError",
    "SynthParams",
    "ThermoseerError",
    "TrainConfig",
    "WallDataset",
    "build_profile_matrix",
    "curve_duration",
    "deposition_time",
    "elm_predict",
    "elm_train",
    "emulate_pyrometer",
    "evaluate",
    "extract_curve_pairs",
    "fit_layer",
    "forward_many",
    "forward_raw",
    "generate_experiment_wall",
    "generate_wall",
    "init_model",
    "mapped_pair_reops",
    "mapping_features",
    "param_count",
    "pod_decompose",
    "point_trace",
    "predict_layer",
    "predict_next_layer",
    "predict_point",
    "reconstruct_profile",
    "render_field",
    "reop",
    "reop_rows",
    "resample",
    "run_benchmark",
    "solve_dwell",
    "split_experiment",
    "train",
    "wire_deposition_rate",
    "__version__",
]
