"""Request batching: coalesce single-sample predict requests into padded batches.

The serving hot path is dominated by per-call overhead (Python dispatch, BLAS
kernel launch at tiny ``m``), so stacking requests into one forward pass is
the single biggest throughput lever.  The batcher also controls *padding*:

* ``"none"`` — run exactly the stacked requests.
* ``"bucket"`` — pad the batch up to the next power of two.  The compute
  substrate then only ever sees a handful of distinct batch shapes, which
  keeps BLAS kernel selection and any shape-keyed caches warm.
* ``"full"`` — pad every batch to ``max_batch_size``.  All batches share one
  shape, which makes per-row results **bit-reproducible** regardless of how
  requests were coalesced: for a fixed input shape the kernels execute the
  same instruction sequence for row ``i`` no matter what the other rows
  contain.  This is the mode the determinism tests pin.

Padding rows are zeros and their outputs are discarded before results are
returned, so padding never changes what a client observes (models must be in
eval mode — the registry enforces this — so no batch statistics leak across
rows).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import nn

PADDING_MODES = ("none", "bucket", "full")


def bucket_size(count: int, max_batch_size: int) -> int:
    """Smallest power-of-two bucket holding ``count``, capped at ``max_batch_size``."""
    if count >= max_batch_size:
        return max_batch_size
    size = 1
    while size < count:
        size *= 2
    return min(size, max_batch_size)


class Batcher:
    """Stacks single-sample requests into padded batches and runs them.

    ``max_batch_size`` bounds how many rows one forward pass serves.
    ``max_wait`` is the upper bound (seconds) on how long a server worker
    waits for more requests: the worker first drains whatever is already
    queued, then waits only while the observed arrival rate predicts another
    request within the bound (see :mod:`repro.serve.server`), so a lone
    request never waits and ``max_wait=0`` never waits.  The batcher itself
    is stateless and thread-safe: all methods are pure functions of their
    arguments.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait: float = 0.002,
        padding: str = "bucket",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if padding not in PADDING_MODES:
            raise ValueError(f"padding must be one of {PADDING_MODES}, got {padding!r}")
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.padding = padding

    def stats(self) -> Dict[str, object]:
        """The batcher's effective configuration, for the metrics plane.

        The batcher holds no mutable state, so its "stats" are the knobs that
        shape every batch — registered alongside the server's live counters so
        one :class:`~repro.serve.observability.MetricsRegistry` snapshot
        explains the batch sizes it reports.
        """
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait": self.max_wait,
            "padding": self.padding,
        }

    def padded_size(self, count: int) -> int:
        """The batch size actually executed for ``count`` stacked requests."""
        count = min(count, self.max_batch_size)
        if self.padding == "full":
            return self.max_batch_size
        if self.padding == "bucket":
            return bucket_size(count, self.max_batch_size)
        return count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, model: nn.Module, samples: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run every sample through ``model``, chunking by ``max_batch_size``.

        Returns one output array per sample: ``(classes,)`` for plain models,
        ``(subnetworks, classes)`` for augmented models (whose forward returns
        one output per sub-network).
        """
        outputs: List[np.ndarray] = []
        for start in range(0, len(samples), self.max_batch_size):
            outputs.extend(self.run_batch(model, samples[start : start + self.max_batch_size]))
        return outputs

    def run_batch(self, model: nn.Module, chunk: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run one coalesced batch (``len(chunk) <= max_batch_size``)."""
        if not chunk:
            return []
        if len(chunk) > self.max_batch_size:
            raise ValueError(f"batch of {len(chunk)} exceeds max_batch_size={self.max_batch_size}")
        rows = [np.asarray(sample) for sample in chunk]
        shape = rows[0].shape
        if any(row.shape != shape for row in rows):
            raise ValueError("all samples in a batch must have the same shape")
        # One allocation of the padded batch: each request row is copied in
        # once and only the padding rows are zeroed.
        dtype = np.result_type(*{row.dtype for row in rows})
        batch = np.empty((self.padded_size(len(rows)),) + shape, dtype=dtype)
        for index, row in enumerate(rows):
            batch[index] = row
        batch[len(rows) :] = 0
        stacked, multi_output = self.forward(model, batch)
        if multi_output:
            return [stacked[:, index] for index in range(len(chunk))]
        return [stacked[index] for index in range(len(chunk))]

    @staticmethod
    def forward(model: nn.Module, batch: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Forward a stacked batch under ``no_grad``.

        Integer batches (token ids) are passed raw, matching the trainers;
        float batches are wrapped in a Tensor.  Augmented models return a list
        of per-subnetwork outputs, which is stacked on a leading axis so the
        caller can slice per-sample columns; the flag says which layout came
        back.
        """
        inputs = batch if np.issubdtype(batch.dtype, np.integer) else nn.Tensor(batch)
        with nn.no_grad():
            outputs = model(inputs)
        if isinstance(outputs, (list, tuple)):
            return np.stack([np.asarray(output.data) for output in outputs], axis=0), True
        return np.asarray(outputs.data), False
