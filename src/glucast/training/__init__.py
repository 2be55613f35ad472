"""Loss, Adam, gradient reversal, early stopping, and the transfer protocol."""

from .adam import BETA1, BETA2, EPSILON, AdamState, adam_step
from .loop import (
    EarlyStopState,
    PatientSplits,
    TrainConfig,
    backward_with_reversal,
    finetune,
    train_source,
    write_history_csv,
)
from .loss import cross_entropy, cross_entropy_node, mse_node

__all__ = [
    "AdamState", "adam_step", "BETA1", "BETA2", "EPSILON",
    "TrainConfig", "EarlyStopState", "PatientSplits",
    "backward_with_reversal", "train_source", "finetune", "write_history_csv",
    "cross_entropy", "mse_node", "cross_entropy_node",
]
