"""Constant-memory online prediction of each vehicle's first daily drive.

Every vehicle carries its own small model that predicts, each morning,
when the first drive of the day will start and how far it will go, with
a calibrated prediction interval around both.  Models learn one day at
a time (predict first, learn after), never store the full history, and
are evaluated prequentially over a fleet.
"""

from .data_model import (
    ChargeSession,
    DailyExample,
    TripSession,
    VehicleHistory,
    build_daily_examples,
    preprocess_fleet,
    preprocess_history,
    read_daily_examples_csv,
    read_sessions_csv,
    write_daily_examples_csv,
    write_sessions_csv,
)
from .evaluation import (
    DayRecord,
    Stream,
    compute_metrics,
    error_over_time,
    evaluate_fleet,
    progressive_validate,
    stable_seed,
)
from .exceptions import (
    ConfigError,
    DataError,
    DivergenceError,
    InsufficientHistoryError,
    MissingArtifactError,
)
from .features import (
    FeaturePipeline,
    FeatureSchema,
    FeatureSpec,
    OnlineStandardizer,
    RunningStats,
    default_schema,
    part_of_day,
)
from .forest import AdaptiveForest, HoeffdingTree
from .models import (
    MODEL_KINDS,
    MeanBaseline,
    McDropoutNet,
    OnlineModel,
    PredictionInterval,
    QuantileForest,
    QuantileKnn,
    QuantileRegressor,
    make_model,
    z_for_confidence,
)
from .selection import (
    backward_sfs,
    combine_screens,
    forward_sfs,
    grid_search,
    hopkins_statistic,
    pearson_screen,
    select_well_behaving,
    vif_prune,
    vif_scores,
)
from .streaming import AdwinWindow, KllSketch
from .synthdata import (
    DriverProfile,
    generate_fleet,
    irregular_profile,
    plant_drift,
    regular_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveForest",
    "AdwinWindow",
    "ChargeSession",
    "ConfigError",
    "DailyExample",
    "DataError",
    "DayRecord",
    "DivergenceError",
    "DriverProfile",
    "FeaturePipeline",
    "FeatureSchema",
    "FeatureSpec",
    "HoeffdingTree",
    "InsufficientHistoryError",
    "KllSketch",
    "MODEL_KINDS",
    "McDropoutNet",
    "MeanBaseline",
    "MissingArtifactError",
    "OnlineModel",
    "OnlineStandardizer",
    "PredictionInterval",
    "QuantileForest",
    "QuantileKnn",
    "QuantileRegressor",
    "RunningStats",
    "Stream",
    "TripSession",
    "VehicleHistory",
    "backward_sfs",
    "build_daily_examples",
    "combine_screens",
    "compute_metrics",
    "default_schema",
    "error_over_time",
    "evaluate_fleet",
    "forward_sfs",
    "generate_fleet",
    "grid_search",
    "hopkins_statistic",
    "irregular_profile",
    "make_model",
    "part_of_day",
    "pearson_screen",
    "plant_drift",
    "preprocess_fleet",
    "preprocess_history",
    "progressive_validate",
    "read_daily_examples_csv",
    "read_sessions_csv",
    "regular_profile",
    "select_well_behaving",
    "stable_seed",
    "vif_prune",
    "vif_scores",
    "write_daily_examples_csv",
    "write_sessions_csv",
    "z_for_confidence",
]
