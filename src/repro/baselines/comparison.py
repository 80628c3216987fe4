"""Figure 14 harness: LeNet/MNIST training-time comparison across frameworks.

The harness measures what can actually run offline (vanilla, Amalgam, DISCO,
CPU/TEE) on the synthetic MNIST analogue and uses the calibrated cost models
(:mod:`crypten_sim`, :mod:`pycrcnn_sim`) for the frameworks that require real
multi-party deployments or lattice cryptography.  Every row records whether
its time was measured or modelled, and the paper's reported slowdown factor is
attached for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.config import AmalgamConfig
from ..core.pipeline import Amalgam
from ..core.trainer import ClassificationTrainer
from ..data.dataloader import DataLoader
from ..data.dataset import TrainValSplit
from ..data.synthetic import make_mnist
from ..models.lenet import LeNet
from .crypten_sim import estimate_crypten_epoch
from .disco_sim import run_disco
from .pycrcnn_sim import estimate_pycrcnn_epoch
from .registry import PAPER_SLOWDOWN_FACTORS, PAPER_VALIDATION_ACCURACY
from .tee_cpu import EnclaveCostModel
from .vanilla import BaselineRun, run_vanilla


@dataclass
class ComparisonRow:
    """One bar of Figure 14."""

    framework: str
    epoch_seconds: float
    slowdown_vs_vanilla: float
    paper_slowdown: float
    validation_accuracy: float
    measured: bool


def _amalgam_run(data: TrainValSplit, epochs: int, lr: float, batch_size: int,
                 seed: int) -> BaselineRun:
    # Figure 14 uses 100% augmentation of both the model and the dataset.
    config = AmalgamConfig(augmentation_amount=1.0, num_subnetworks=2, seed=seed)
    amalgam = Amalgam(config)
    model = LeNet(num_classes=data.info.num_classes, in_channels=data.info.shape[0],
                  image_size=data.info.shape[1], rng=np.random.default_rng(seed))
    job = amalgam.prepare_image_job(model, data)
    trained = amalgam.train_job(job, epochs=epochs, lr=lr, batch_size=batch_size)
    return BaselineRun(
        framework="amalgam",
        epoch_seconds=trained.training.average_epoch_time,
        total_seconds=trained.training.total_time,
        validation_accuracy=trained.training.history.last("val_accuracy", 0.0),
        measured=True,
        training=trained.training,
    )


def run_framework_comparison(epochs: int = 1, lr: float = 0.001, batch_size: int = 128,
                             train_count: int = 256, val_count: int = 64,
                             seed: int = 0,
                             data: Optional[TrainValSplit] = None) -> List[ComparisonRow]:
    """Reproduce Figure 14 at the configured (tiny by default) scale."""
    if data is None:
        data = make_mnist(train_count=train_count, val_count=val_count, seed=seed)
    batches_per_epoch = max(len(data.train) // batch_size, 1)

    def fresh_model() -> LeNet:
        return LeNet(num_classes=data.info.num_classes, in_channels=data.info.shape[0],
                     image_size=data.info.shape[1], rng=np.random.default_rng(seed))

    # One untimed training step first, so the run timed first (vanilla) does
    # not pay the process's first-call costs alone and skew every ratio.
    warm_up = next(iter(DataLoader(data.train, batch_size=batch_size)))
    ClassificationTrainer(fresh_model(), lr=lr).train_epoch([warm_up])

    runs: Dict[str, BaselineRun] = {}
    runs["vanilla"] = run_vanilla(fresh_model(), data, epochs=epochs, lr=lr,
                                  batch_size=batch_size, seed=seed)
    runs["amalgam"] = _amalgam_run(data, epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
    runs["disco"] = run_disco(fresh_model(), data, epochs=epochs, lr=lr,
                              batch_size=batch_size, seed=seed)

    vanilla_epoch = max(runs["vanilla"].epoch_seconds, 1e-9)
    model_parameters = fresh_model().num_parameters()

    # TEE best case = CPU training plus the enclave paging cost model applied
    # to the measured vanilla epoch (deterministic, avoids re-measurement noise).
    working_set = model_parameters * 8 + data.train.nbytes()
    tee_epoch = EnclaveCostModel().epoch_time(vanilla_epoch, working_set)
    runs["cpu_tee"] = BaselineRun("cpu_tee", tee_epoch, tee_epoch * epochs,
                                  runs["vanilla"].validation_accuracy, measured=True)

    crypten_epoch = estimate_crypten_epoch(vanilla_epoch, batches_per_epoch, model_parameters)
    pycrcnn_epoch = estimate_pycrcnn_epoch(len(data.train), model_parameters)
    runs["crypten"] = BaselineRun("crypten", crypten_epoch, crypten_epoch * epochs,
                                  PAPER_VALIDATION_ACCURACY["crypten"], measured=False)
    runs["pycrcnn"] = BaselineRun("pycrcnn", pycrcnn_epoch, pycrcnn_epoch * epochs,
                                  PAPER_VALIDATION_ACCURACY["pycrcnn"], measured=False)

    rows: List[ComparisonRow] = []
    for name in ("vanilla", "amalgam", "disco", "crypten", "cpu_tee", "pycrcnn"):
        run = runs[name]
        rows.append(ComparisonRow(
            framework=name,
            epoch_seconds=run.epoch_seconds,
            slowdown_vs_vanilla=run.epoch_seconds / vanilla_epoch,
            paper_slowdown=PAPER_SLOWDOWN_FACTORS[name],
            validation_accuracy=run.validation_accuracy,
            measured=run.measured,
        ))
    return rows


def format_comparison(rows: List[ComparisonRow]) -> str:
    """Human-readable table of the Figure 14 reproduction."""
    header = (f"{'framework':<10} {'epoch (s)':>12} {'slowdown':>10} "
              f"{'paper':>8} {'val acc':>8} {'source':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.framework:<10} {row.epoch_seconds:>12.3f} {row.slowdown_vs_vanilla:>9.1f}x "
            f"{row.paper_slowdown:>7.0f}x {row.validation_accuracy:>8.3f} "
            f"{'measured' if row.measured else 'modelled':>9}"
        )
    return "\n".join(lines)
