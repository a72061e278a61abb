"""Multi-lag Jordan recurrent networks with exact, mutually verifying
gradient engines, instrumented complexity accounting, and an hourly
power-consumption forecasting pipeline (point and probabilistic)."""

from .base import (
    BaseEstimator,
    ConfigError,
    DataValidationError,
    NotFittedError,
    NumericError,
    RnnpError,
)
from .bench import BenchRecord, emit_csv, gain_factors, sweep_neurons, sweep_tau
from .engines import (
    BpttInfeasibleError,
    GradientPair,
    bptt_gradients,
    finite_difference_gradients,
    macronode_count,
    rtrl_gradients,
    trrl_gradients,
)
from .features import FEATURE_DIM, CalendarFeatureEncoder
from .forecaster import RnnForecaster
from .linalg import OpCounter, Rng
from .metrics import (
    MetricReport,
    average_pinball_loss,
    ci_backtest,
    mape,
    point_metrics,
    probabilistic_metrics,
    rmse,
)
from .model import (
    ForwardTrace,
    ModelParams,
    RnnSpec,
    forward_sequence,
    forward_steps,
    init_params,
    load_checkpoint,
    pack,
    project_inputs,
    save_checkpoint,
)
from .pbonacci import (
    PbonacciTable,
    build_table,
    check_bounds,
    fibonacci_sum_identity,
    monotone_doubling_check,
)
from .pipeline import (
    ForecastDistribution,
    LoadForecastPipeline,
    WalkForwardSplit,
    build_walk_forward_plan,
    run_walk_forward,
    write_forecast_csv,
)
from .seasonal import HourlyDeseasonalizer, NormalizedResidualSeries
from .series import HourlySeries, ingest_csv, read_holidays, write_csv
from .synth import SynthConfig, SynthTruth, synth_generate
from .training import (
    AdamState,
    HyperGrid,
    LossHead,
    TrainConfig,
    TrainingWindow,
    adam_step,
    gaussian_nll_loss,
    grid_search,
    mse_loss,
    train,
)
from .windows import make_windows

__version__ = "0.1.0"
