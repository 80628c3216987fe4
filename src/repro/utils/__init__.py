"""Shared utilities: deterministic RNG, timing, logging, metrics and the BLAS pin."""

from .blas import pin_blas_to_one_thread
from .logging import get_logger
from .metrics import MetricHistory, RunningAverage
from .rng import derive_seed, get_global_seed, get_rng, set_global_seed, spawn
from .timing import Timer, stopwatch

__all__ = [
    "get_logger",
    "MetricHistory",
    "RunningAverage",
    "derive_seed",
    "get_global_seed",
    "get_rng",
    "pin_blas_to_one_thread",
    "set_global_seed",
    "spawn",
    "Timer",
    "stopwatch",
]
