"""Every training loop frees a step's graph before the next step's forward.

A step's loss tensor holds the whole graph behind it (activations,
backward closures, non-leaf gradients).  If a loop keeps it alive into the
next step, two steps' graphs are resident at once.  Each test records a
weak reference to every loss the step builds and checks, when the next
step calls ``optimizer.zero_grad()`` (before its forward), that all of them
are dead.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core import Amalgam
from repro.core.trainer import (
    AugmentedClassificationTrainer,
    AugmentedLanguageModelTrainer,
    ClassificationTrainer,
    LanguageModelTrainer,
)
from repro.data import DataLoader, batchify
from repro.models import LeNet, TransformerLM
from repro.nn import functional as F


class LossProbe:
    """Weak references to every loss, grouped by the step that built it."""

    def __init__(self, monkeypatch, trainer) -> None:
        self.steps: list[list[weakref.ref]] = []
        self.alive_at_step_start: list[int] = []
        cross_entropy = F.cross_entropy
        zero_grad = trainer.optimizer.zero_grad

        def recorded(*args, **kwargs):
            loss = cross_entropy(*args, **kwargs)
            self.steps[-1].append(weakref.ref(loss))
            return loss

        def checked():
            self.alive_at_step_start.append(
                sum(ref() is not None for step in self.steps for ref in step))
            self.steps.append([])
            zero_grad()

        monkeypatch.setattr(F, "cross_entropy", recorded)
        monkeypatch.setattr(trainer.optimizer, "zero_grad", checked)

    def assert_released(self) -> None:
        assert len(self.steps) >= 2, "need at least two steps"
        assert all(self.steps), "every step must build a loss"
        assert self.alive_at_step_start == [0] * len(self.steps)


def test_classification_trainer(monkeypatch, mnist_tiny):
    trainer = ClassificationTrainer(LeNet(10, 1, 28, rng=np.random.default_rng(0)))
    probe = LossProbe(monkeypatch, trainer)
    trainer.train_epoch(DataLoader(mnist_tiny.train, 8))
    probe.assert_released()


def test_augmented_classification_trainer(monkeypatch, mnist_tiny, amalgam_config):
    model = LeNet(10, 1, 28, rng=np.random.default_rng(0))
    job = Amalgam(amalgam_config).prepare_image_job(model, mnist_tiny)
    trainer = AugmentedClassificationTrainer(job.augmented_model)
    probe = LossProbe(monkeypatch, trainer)
    trainer.train_epoch(DataLoader(job.train_data.dataset, 8))
    probe.assert_released()


def _lm(vocab):
    return TransformerLM(len(vocab), 16, 2, 1, 32, dropout=0.0, rng=np.random.default_rng(2))


def test_language_model_trainer(monkeypatch, wikitext_tiny):
    train, _, vocab = wikitext_tiny
    trainer = LanguageModelTrainer(_lm(vocab))
    probe = LossProbe(monkeypatch, trainer)
    trainer.fit(batchify(train.tokens, 2), seq_len=10)
    probe.assert_released()


def test_augmented_language_model_trainer(monkeypatch, wikitext_tiny, amalgam_config):
    train, _, vocab = wikitext_tiny
    job = Amalgam(amalgam_config).prepare_lm_job(_lm(vocab), train, batch_rows=2, seq_len=10)
    trainer = AugmentedLanguageModelTrainer(job.augmented_model)
    probe = LossProbe(monkeypatch, trainer)
    trainer.fit(job.train_data.batches, job.train_data.block_length)
    probe.assert_released()

