"""Ship deck motion: simulation, joint LSTM forecasting, rest-period detection."""

from .evaluate import ErrorReport, ForecastResult, error_report, predict_series
from .lstm import (
    LstmConfig,
    LstmParams,
    init_params,
    loss_and_gradients,
    predict_windows,
)
from .restperiod import (
    RestCriteria,
    RestInterval,
    detect_rest_periods,
    rest_periods_from_forecast,
)
from .seriesdata import (
    MotionSeries,
    Normalizer,
    SplitDataset,
    WindowedDataset,
    apply_normalizer,
    fit_normalizer,
    load_series_csv,
    make_windows,
    sample_series,
    split_series,
)
from .training import (
    MalformedModelFileError,
    ModelArtifact,
    ModelFileError,
    ModelShapeError,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    UnknownModelVersionError,
    load_model,
    save_model,
    train,
)
from .wavegen import (
    ChannelSpec,
    SeaStateSpec,
    SineComponent,
    WaveModel,
    evaluate_model_array,
    knox_training_model,
    load_wave_model,
    random_sea_state_model,
    sea_state5_reference_model,
    sea_state5_spec,
)

__version__ = "0.1.0"
