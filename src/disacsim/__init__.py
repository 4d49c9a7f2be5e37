"""Multistatic sensing simulation and estimation toolkit.

One transmitter illuminates a scene; several receivers with unknown
positions and unsynchronized clocks measure beamspace channel tensors.
The estimation chain recovers per-receiver multipath parameters by
tensor decomposition, screens clutter, clusters scatterer detections
across receivers and jointly localizes receivers and targets while
solving for the clock offsets.
"""

from .estimator import (
    AlsOptions,
    CpFactors,
    EstimatedPath,
    RankDeficiencyError,
    cpd_als,
    estimate_paths,
    extract_angle,
    extract_delay,
    select_model_order,
)
from .fusion import (
    IllConditionedError,
    LosMeasurement,
    PathMeasurement,
    SceneEstimate,
    UnderdeterminedError,
    build_joint_system,
    run_fusion,
    solve_wls,
)
from .geometry import AnglePair, FoiBounds, angles_from_direction, direction_from_angles
from .harness import (
    ConfigError,
    MonteCarloResult,
    ScenarioConfig,
    TrialResult,
    default_scenario,
    load_config,
    run_montecarlo,
    run_trial,
)
from .pipeline import (
    SingleReceiverResult,
    build_associations,
    clutter_filter,
    dbscan,
    identify_los,
    localize_single,
    pick_direct_path,
    process_receiver,
    unwrap_delays,
)
from .scene import (
    ClutterPoint,
    ExtendedTarget,
    PathRecord,
    ReceiverNode,
    Scene,
    SceneConfig,
    TransmitterNode,
    UpaGeometry,
    generate_ground_truth_paths,
    random_scene,
    steering_vector,
)
from .waveform import (
    BeamCodebook,
    CodebookSet,
    MeasurementTensor,
    OfdmConfig,
    channel_matrix,
    dft_codebook,
    export_tensor,
    load_tensor,
    synthesize_tensor,
    tensor_from_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AlsOptions",
    "AnglePair",
    "BeamCodebook",
    "ClutterPoint",
    "CodebookSet",
    "ConfigError",
    "CpFactors",
    "EstimatedPath",
    "ExtendedTarget",
    "FoiBounds",
    "IllConditionedError",
    "LosMeasurement",
    "MeasurementTensor",
    "MonteCarloResult",
    "OfdmConfig",
    "PathMeasurement",
    "PathRecord",
    "RankDeficiencyError",
    "ReceiverNode",
    "Scene",
    "SceneConfig",
    "SceneEstimate",
    "ScenarioConfig",
    "SingleReceiverResult",
    "TransmitterNode",
    "TrialResult",
    "UnderdeterminedError",
    "UpaGeometry",
    "angles_from_direction",
    "build_associations",
    "build_joint_system",
    "channel_matrix",
    "clutter_filter",
    "cpd_als",
    "dbscan",
    "default_scenario",
    "dft_codebook",
    "direction_from_angles",
    "estimate_paths",
    "export_tensor",
    "extract_angle",
    "extract_delay",
    "generate_ground_truth_paths",
    "identify_los",
    "load_config",
    "load_tensor",
    "localize_single",
    "pick_direct_path",
    "process_receiver",
    "random_scene",
    "run_fusion",
    "run_montecarlo",
    "run_trial",
    "select_model_order",
    "solve_wls",
    "steering_vector",
    "synthesize_tensor",
    "tensor_from_paths",
    "unwrap_delays",
]
