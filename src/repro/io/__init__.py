"""Persistence: versioned, atomic solver checkpoints."""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "CheckpointManager",
    "CheckpointError",
]
