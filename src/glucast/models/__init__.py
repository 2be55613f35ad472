"""Predictive models: the two-level-attention regressor and baselines."""

from .attribution import (
    ContributionMap,
    EventAttributionProfile,
    aggregate_attributions,
    contributions,
    event_conditioned_attributions,
    event_mask_from_windows,
    normalized_contributions,
)
from .baselines import (
    LstmRegConfig,
    StdAttnConfig,
    init_lstm_reg_params,
    init_std_attn_params,
)
from .retain import ForwardTrace, RetainConfig, init_retain_params
from .serialize import load_model, save_model
from .wrappers import (
    MODELS,
    LstmRegModel,
    RetainModel,
    StdAttnModel,
    restore,
    snapshot,
)

__all__ = [
    "RetainConfig", "ForwardTrace", "init_retain_params",
    "ContributionMap", "contributions", "normalized_contributions",
    "aggregate_attributions", "event_conditioned_attributions",
    "event_mask_from_windows", "EventAttributionProfile",
    "StdAttnConfig", "LstmRegConfig",
    "init_std_attn_params", "init_lstm_reg_params",
    "MODELS", "RetainModel", "StdAttnModel", "LstmRegModel", "snapshot", "restore",
    "save_model", "load_model",
]
