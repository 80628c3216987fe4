"""Training loops used by both the plain baseline and the augmented models.

The trainer is deliberately explicit about randomness: the data order is
driven by an external RNG so that the "original model on original data" run
and the "augmented model on augmented data" run can be made to consume the
same batches in the same order — the precondition for the training-equivalence
property the paper claims (and this repo tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..data.dataloader import DataLoader
from ..utils.metrics import MetricHistory, RunningAverage
from .model_augmenter import AugmentedModel


@dataclass
class TrainingResult:
    """Per-epoch metric curves plus wall-clock accounting."""

    history: MetricHistory = field(default_factory=MetricHistory)
    epoch_times: List[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(self.epoch_times)

    @property
    def average_epoch_time(self) -> float:
        return self.total_time / len(self.epoch_times) if self.epoch_times else 0.0


def _make_optimizer(parameters, optimizer: str, lr: float) -> nn.optim.Optimizer:
    if optimizer == "sgd":
        return nn.optim.SGD(parameters, lr=lr, momentum=0.9)
    if optimizer == "adam":
        return nn.optim.Adam(parameters, lr=lr)
    raise ValueError(f"unknown optimizer '{optimizer}' (expected 'sgd' or 'adam')")


class ClassificationTrainer:
    """Trains a plain classifier on (images|token sequences, labels)."""

    def __init__(self, model: nn.Module, lr: float = 0.01, optimizer: str = "sgd") -> None:
        self.model = model
        self.optimizer = _make_optimizer(model.parameters(), optimizer, lr)

    def train_epoch(self, loader: DataLoader) -> tuple[float, float]:
        self.model.train()
        loss_meter, accuracy_meter = RunningAverage(), RunningAverage()
        for inputs, labels in loader:
            loss, accuracy = self._step(inputs, labels)
            loss_meter.update(loss, len(labels))
            accuracy_meter.update(accuracy, len(labels))
        return loss_meter.value, accuracy_meter.value

    def _step(self, inputs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """One SGD step; returns (loss, accuracy) as floats.

        Only floats leave, so the step's graph (activations, closures and
        non-leaf gradients) is freed before the next step's forward.
        """
        self.optimizer.zero_grad()
        logits = self.model(self._wrap(inputs))
        loss = F.cross_entropy(logits, labels)
        loss.backward()
        self.optimizer.step()
        return loss.item(), F.accuracy(logits, labels)

    def evaluate(self, loader: DataLoader) -> tuple[float, float]:
        self.model.eval()
        loss_meter, accuracy_meter = RunningAverage(), RunningAverage()
        with nn.no_grad():
            for inputs, labels in loader:
                batch = self._wrap(inputs)
                logits = self.model(batch)
                loss = F.cross_entropy(logits, labels)
                loss_meter.update(loss.item(), len(labels))
                accuracy_meter.update(F.accuracy(logits, labels), len(labels))
        return loss_meter.value, accuracy_meter.value

    def fit(self, train_loader: DataLoader, val_loader: Optional[DataLoader] = None,
            epochs: int = 1, verbose: bool = False) -> TrainingResult:
        result = TrainingResult()
        for epoch in range(epochs):
            start = time.perf_counter()
            train_loss, train_accuracy = self.train_epoch(train_loader)
            result.epoch_times.append(time.perf_counter() - start)
            result.history.record("train_loss", train_loss)
            result.history.record("train_accuracy", train_accuracy)
            if val_loader is not None:
                val_loss, val_accuracy = self.evaluate(val_loader)
                result.history.record("val_loss", val_loss)
                result.history.record("val_accuracy", val_accuracy)
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: "
                      f"loss={train_loss:.4f} acc={train_accuracy:.3f}")
        return result

    @staticmethod
    def _wrap(inputs: np.ndarray):
        # Integer token ids stay numpy (embedding lookups), floats become tensors.
        if np.issubdtype(inputs.dtype, np.integer):
            return inputs
        return Tensor(inputs)


class AugmentedClassificationTrainer:
    """Trains an :class:`AugmentedModel` on an augmented dataset (Algorithm 1).

    Per-epoch metrics are reported for the *original sub-network*, which is
    what the paper's training-loss/accuracy figures plot.
    """

    def __init__(self, augmented_model: AugmentedModel, lr: float = 0.01,
                 optimizer: str = "sgd") -> None:
        self.model = augmented_model
        self.optimizer = _make_optimizer(augmented_model.parameters(), optimizer, lr)

    def train_epoch(self, loader: DataLoader) -> tuple[float, float]:
        self.model.train()
        loss_meter, accuracy_meter = RunningAverage(), RunningAverage()
        for inputs, labels in loader:
            loss, accuracy = self._step(inputs, labels)
            loss_meter.update(loss, len(labels))
            accuracy_meter.update(accuracy, len(labels))
        return loss_meter.value, accuracy_meter.value

    def _step(self, inputs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """One SGD step on the combined loss; returns the original's (loss, accuracy).

        Only floats leave, so the step's graph is freed before the next
        step's forward.
        """
        self.optimizer.zero_grad()
        # A single forward pass drives both the combined loss (Algorithm 1)
        # and the reported original-sub-network metrics, so the original
        # body sees exactly one training-mode forward per batch — the same
        # as when training the original model alone (this keeps batch-norm
        # statistics, and therefore the reported curves, bit-identical).
        outputs = self.model(ClassificationTrainer._wrap(inputs))
        terms = [F.cross_entropy(output, labels) for output in outputs]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        total.backward()
        self.optimizer.step()
        original = self.model.original_index
        return terms[original].item(), F.accuracy(outputs[original], labels)

    def evaluate(self, loader: DataLoader) -> tuple[float, float]:
        """Validate the augmented model with an augmented testset (Section 5.4)."""
        self.model.eval()
        loss_meter, accuracy_meter = RunningAverage(), RunningAverage()
        with nn.no_grad():
            for inputs, labels in loader:
                batch = ClassificationTrainer._wrap(inputs)
                logits = self.model.original_output(batch)
                loss_meter.update(F.cross_entropy(logits, labels).item(), len(labels))
                accuracy_meter.update(F.accuracy(logits, labels), len(labels))
        return loss_meter.value, accuracy_meter.value

    def fit(self, train_loader: DataLoader, val_loader: Optional[DataLoader] = None,
            epochs: int = 1, verbose: bool = False) -> TrainingResult:
        result = TrainingResult()
        for epoch in range(epochs):
            start = time.perf_counter()
            train_loss, train_accuracy = self.train_epoch(train_loader)
            result.epoch_times.append(time.perf_counter() - start)
            result.history.record("train_loss", train_loss)
            result.history.record("train_accuracy", train_accuracy)
            if val_loader is not None:
                val_loss, val_accuracy = self.evaluate(val_loader)
                result.history.record("val_loss", val_loss)
                result.history.record("val_accuracy", val_accuracy)
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: "
                      f"loss={train_loss:.4f} acc={train_accuracy:.3f}")
        return result


class LanguageModelTrainer:
    """Trains a plain language model over batchified token blocks."""

    def __init__(self, model: nn.Module, lr: float = 1e-3, optimizer: str = "adam") -> None:
        self.model = model
        self.optimizer = _make_optimizer(model.parameters(), optimizer, lr)

    def fit(self, batchified: np.ndarray, seq_len: int, epochs: int = 1,
            val_batchified: Optional[np.ndarray] = None, verbose: bool = False) -> TrainingResult:
        from ..data.text import lm_batches

        result = TrainingResult()
        for epoch in range(epochs):
            start = time.perf_counter()
            self.model.train()
            loss_meter = RunningAverage()
            for inputs, targets in lm_batches(batchified, seq_len):
                loss_meter.update(self._step(inputs, targets))
            result.epoch_times.append(time.perf_counter() - start)
            result.history.record("train_loss", loss_meter.value)
            if val_batchified is not None:
                result.history.record("val_loss", self.evaluate(val_batchified, seq_len))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: loss={loss_meter.value:.4f}")
        return result

    def _step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One optimizer step; only the loss float leaves, so the graph is freed."""
        self.optimizer.zero_grad()
        loss = self.model.loss(inputs, targets)
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def evaluate(self, batchified: np.ndarray, seq_len: int) -> float:
        from ..data.text import lm_batches

        self.model.eval()
        loss_meter = RunningAverage()
        with nn.no_grad():
            for inputs, targets in lm_batches(batchified, seq_len):
                loss_meter.update(self.model.loss(inputs, targets).item())
        return loss_meter.value


class AugmentedLanguageModelTrainer:
    """Trains an augmented language model on an augmented, batchified stream."""

    def __init__(self, augmented_model: AugmentedModel, lr: float = 1e-3,
                 optimizer: str = "adam") -> None:
        self.model = augmented_model
        self.optimizer = _make_optimizer(augmented_model.parameters(), optimizer, lr)

    def fit(self, augmented_batches: np.ndarray, seq_len: int, epochs: int = 1,
            val_batches: Optional[np.ndarray] = None, verbose: bool = False) -> TrainingResult:
        result = TrainingResult()
        for epoch in range(epochs):
            start = time.perf_counter()
            self.model.train()
            loss_meter = RunningAverage()
            for block in _sequence_blocks(augmented_batches, seq_len):
                loss_meter.update(self._step(block))
            result.epoch_times.append(time.perf_counter() - start)
            result.history.record("train_loss", loss_meter.value)
            if val_batches is not None:
                result.history.record("val_loss", self.evaluate(val_batches, seq_len))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: loss={loss_meter.value:.4f}")
        return result

    def _step(self, block: np.ndarray) -> float:
        """One optimizer step on the summed loss; returns the original's loss.

        Only the float leaves, so the step's graph is freed before the next.
        """
        self.optimizer.zero_grad()
        terms = [subnetwork.lm_loss(block) for subnetwork in self.model.subnetworks]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        total.backward()
        self.optimizer.step()
        return terms[self.model.original_index].item()

    def evaluate(self, augmented_batches: np.ndarray, seq_len: int) -> float:
        self.model.eval()
        loss_meter = RunningAverage()
        with nn.no_grad():
            for block in _sequence_blocks(augmented_batches, seq_len):
                loss_meter.update(self.model.original_loss(block).item())
        return loss_meter.value


def _sequence_blocks(batches: np.ndarray, seq_len: int):
    """Split an augmented ``(rows, steps)`` token matrix into fixed-width blocks."""
    _, steps = batches.shape
    for start in range(0, steps, seq_len):
        block = batches[:, start : start + seq_len]
        if block.shape[1] < 3:
            continue
        yield block
