"""Persistence: versioned, atomic solver checkpoints and the ensemble
member result file."""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from .result import REQUIRED_RESULT_KEYS, RESULT_NAME, load_result

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "CheckpointManager",
    "CheckpointError",
    "RESULT_NAME",
    "REQUIRED_RESULT_KEYS",
    "load_result",
]
