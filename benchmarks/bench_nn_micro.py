"""Microbenchmarks for the ``repro.nn`` compute substrate.

Unlike the figure/table benchmarks (which reproduce paper results), this
suite times the primitive operations every training run is built from —
dense and depthwise convolution, linear layers, an attention block, a
training-mode batch norm, whole LeNet / MobileNetV2 training steps, the
repository benchmark's augmented MobileNetV2 training step, and the
augmented-vs-plain step overhead — plus the served forward (augmented
LeNet / MobileNetV2-small at batch 32 under ``no_grad``) with its minor page
faults per call and a per-layer-type breakdown, and writes a
machine-readable ``BENCH_nn_micro.json`` so future PRs can diff the repo's
performance trajectory.

Run it as a script (no pytest required)::

    PYTHONPATH=src python benchmarks/bench_nn_micro.py
    REPRO_SCALE=tiny PYTHONPATH=src python benchmarks/bench_nn_micro.py  # CI smoke

``REPRO_SCALE=tiny`` shrinks shapes and repeat counts so the whole suite
finishes in a few seconds; the default (``full``) scale is still laptop-CPU
friendly but large enough for stable timings.

NumPy's OpenBLAS is pinned to one thread at start-up (``blas_threads`` in
the report header).  The script probes for ``get_default_dtype``/``no_grad``
in ``repro.nn``; for before/after numbers of an older checkout, run that
checkout's own copy of the script with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import containers
from repro.utils import pin_blas_to_one_thread


def _default_dtype():
    getter = getattr(nn, "get_default_dtype", None)
    return getter() if getter is not None else np.float64


def _tensor(rng: np.random.Generator, *shape: int, requires_grad: bool = False) -> Tensor:
    data = rng.standard_normal(shape).astype(_default_dtype())
    return Tensor(data, requires_grad=requires_grad)


def time_fn(fn: Callable[[], None], repeats: int, warmup: int = 2) -> Dict[str, float]:
    """Call ``fn`` ``repeats`` times (after warmup) and report timing stats."""
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "min_s": float(np.min(samples)),
        "mean_s": float(np.mean(samples)),
        "median_s": float(np.median(samples)),
        "runs": int(repeats),
    }


def minor_faults_per_call(fn: Callable[[], None], repeats: int) -> Optional[float]:
    """Mean minor page faults per call of an already warmed-up ``fn``.

    A steady-state call that reuses its memory takes none; one that gets
    fresh pages from the kernel pays a zero-filled fault per 4 KiB.
    ``None`` where the ``resource`` module is missing (Windows).
    """
    try:
        import resource
    except ImportError:
        return None
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats


# ---------------------------------------------------------------------------
# Individual benchmarks
# ---------------------------------------------------------------------------
def bench_conv2d_dense(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    """One dense conv2d training step: forward + backward through the op."""
    batch = 4 if tiny else 8
    x = _tensor(rng, batch, 16, 16, 16, requires_grad=True)
    w = _tensor(rng, 32, 16, 3, 3, requires_grad=True)
    b = _tensor(rng, 32, requires_grad=True)

    def step() -> None:
        x.zero_grad()
        w.zero_grad()
        b.zero_grad()
        out = F.conv2d(x, w, b, stride=1, padding=1)
        out.sum().backward()

    return step


def bench_conv2d_depthwise(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    """One depthwise (groups == channels) conv2d training step."""
    batch = 4 if tiny else 8
    channels = 32 if tiny else 64
    x = _tensor(rng, batch, channels, 16, 16, requires_grad=True)
    w = _tensor(rng, channels, 1, 3, 3, requires_grad=True)
    b = _tensor(rng, channels, requires_grad=True)

    def step() -> None:
        x.zero_grad()
        w.zero_grad()
        b.zero_grad()
        out = F.conv2d(x, w, b, stride=1, padding=1, groups=channels)
        out.sum().backward()

    return step


def bench_linear(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    batch = 32 if tiny else 128
    layer = nn.Linear(256, 256, rng=rng)
    x = _tensor(rng, batch, 256, requires_grad=True)

    def step() -> None:
        layer.zero_grad()
        x.zero_grad()
        layer(x).sum().backward()

    return step


def bench_attention_block(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    seq = 16 if tiny else 32
    block = nn.TransformerEncoderLayer(64, 4, 128, dropout=0.0, rng=rng)
    x = _tensor(rng, 4, seq, 64, requires_grad=True)

    def step() -> None:
        block.zero_grad()
        x.zero_grad()
        block(x).sum().backward()

    return step


def bench_lenet_step(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    from repro.models import LeNet

    batch = 16 if tiny else 32
    model = LeNet(10, 1, 28, rng=rng)
    optimizer = nn.optim.SGD(model.parameters(), lr=0.01, momentum=0.9)
    images = rng.standard_normal((batch, 1, 28, 28)).astype(_default_dtype())
    labels = rng.integers(0, 10, size=batch)

    def step() -> None:
        optimizer.zero_grad()
        loss = F.cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        optimizer.step()

    return step


def bench_mobilenet_step(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    from repro.models.mobilenet import mobilenet_v2_small

    batch = 2 if tiny else 4
    model = mobilenet_v2_small(num_classes=10, in_channels=3, rng=rng)
    optimizer = nn.optim.SGD(model.parameters(), lr=0.01, momentum=0.9)
    images = rng.standard_normal((batch, 3, 32, 32)).astype(_default_dtype())
    labels = rng.integers(0, 10, size=batch)

    def step() -> None:
        optimizer.zero_grad()
        loss = F.cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        optimizer.step()

    return step


def bench_augmented_mobilenet_step(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    """The repository benchmark's training step: augmented MobileNetV2-small.

    Same job as ``perfbench``'s training workload (CIFAR-10 analogue,
    ``augmentation_amount=0.5``, ``num_subnetworks=2``, so 48x48 inputs),
    one SGD step of ``AugmentedClassificationTrainer`` at batch 32 (8 at
    tiny scale).
    """
    from repro.core import Amalgam, AmalgamConfig
    from repro.core.trainer import AugmentedClassificationTrainer
    from repro.data import make_cifar10
    from repro.models.mobilenet import mobilenet_v2_small

    batch = 8 if tiny else 32
    data = make_cifar10(train_count=batch, val_count=8, seed=11)
    model = mobilenet_v2_small(num_classes=10, in_channels=3, rng=rng)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=13)
    job = Amalgam(config).prepare_image_job(model, data)
    trainer = AugmentedClassificationTrainer(job.augmented_model, lr=0.01)
    one_batch = [(job.train_data.dataset.samples[:batch], job.train_data.dataset.labels[:batch])]

    def step() -> None:
        trainer.train_epoch(one_batch)

    return step


def bench_batch_norm_train(rng: np.random.Generator, tiny: bool) -> Callable[[], None]:
    """Training-mode batch norm forward + backward on a MobileNet-sized activation."""
    shape = (8, 16, 16, 16) if tiny else (32, 32, 32, 32)
    x = _tensor(rng, *shape, requires_grad=True)
    gamma = Tensor(np.ones(shape[1], dtype=_default_dtype()), requires_grad=True)
    beta = Tensor(np.zeros(shape[1], dtype=_default_dtype()), requires_grad=True)
    running_mean = np.zeros(shape[1], dtype=_default_dtype())
    running_var = np.ones(shape[1], dtype=_default_dtype())
    upstream = rng.standard_normal(shape).astype(_default_dtype())

    def step() -> None:
        for tensor in (x, gamma, beta):
            tensor.zero_grad()
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        out.backward(upstream)

    return step


def bench_augmented_overhead(rng: np.random.Generator, tiny: bool,
                             repeats: int) -> Dict[str, Dict[str, float]]:
    """Augmented-model training step vs the plain model's, on the same data."""
    from repro.core import Amalgam, AmalgamConfig
    from repro.core.trainer import AugmentedClassificationTrainer, ClassificationTrainer
    from repro.data import DataLoader, make_mnist
    from repro.models import LeNet

    samples = 32 if tiny else 64
    batch_size = 16
    data = make_mnist(train_count=samples, val_count=16, seed=11)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=13)

    plain_model = LeNet(10, 1, 28, rng=np.random.default_rng(5))
    plain_trainer = ClassificationTrainer(plain_model, lr=0.01)
    plain_loader = DataLoader(data.train, batch_size, shuffle=False)

    amalgam = Amalgam(config)
    job = amalgam.prepare_image_job(LeNet(10, 1, 28, rng=np.random.default_rng(5)), data)
    augmented_trainer = AugmentedClassificationTrainer(job.augmented_model, lr=0.01)
    augmented_loader = DataLoader(job.train_data.dataset, batch_size, shuffle=False)

    plain = time_fn(lambda: plain_trainer.train_epoch(plain_loader), repeats, warmup=1)
    augmented = time_fn(lambda: augmented_trainer.train_epoch(augmented_loader), repeats, warmup=1)
    overhead = augmented["median_s"] / plain["median_s"] if plain["median_s"] else float("nan")
    return {
        "plain_train_epoch": plain,
        "augmented_train_epoch": augmented,
        "augmented_overhead_x": {"ratio": float(overhead)},
    }


def _served_job(kind: str):
    """An augmented LeNet or MobileNetV2-small job plus 32 augmented queries.

    Matches the served models of the repository benchmark: LeNet on 1x28x28
    and MobileNetV2-small on 3x32x32 inputs, with ``augmentation_amount=0.5``
    and ``num_subnetworks=2``.
    """
    from repro.core import Amalgam, AmalgamConfig
    from repro.data import make_cifar10, make_mnist
    from repro.models import LeNet
    from repro.models.mobilenet import mobilenet_v2_small
    from repro.serve import ExtractionProxy

    if kind == "lenet":
        data = make_mnist(train_count=32, val_count=32, seed=11)
        model = LeNet(10, 1, 28, rng=np.random.default_rng(5))
    else:
        data = make_cifar10(train_count=32, val_count=32, seed=11)
        model = mobilenet_v2_small(num_classes=10, in_channels=3, rng=np.random.default_rng(5))
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=13)
    job = Amalgam(config).prepare_image_job(model, data)
    job.augmented_model.eval()
    proxy = ExtractionProxy(job.secrets, rng=np.random.default_rng(17))
    return job.augmented_model, proxy.augment_batch(data.validation.samples[:32])


def bench_served_forward(model: nn.Module, queries: np.ndarray) -> Callable[[], None]:
    """The served forward: the augmented model in eval mode under ``no_grad``."""
    batch = Tensor(queries)

    def forward() -> None:
        with nn.no_grad():
            model(batch)

    return forward


def _layer_kind(module) -> str:
    """Layer-type label; convolutions are split by the kernel path they take."""
    name = type(module).__name__
    if name != "Conv2d":
        return name
    if module.groups > 1:
        return "Conv2d[depthwise]" if module.groups == module.in_channels else "Conv2d[grouped]"
    return "Conv2d[1x1]" if module.kernel_size == (1, 1) else "Conv2d[kxk]"


def layer_breakdown(model: nn.Module, forward: Callable[[], None],
                    repeats: int) -> Dict[str, float]:
    """Mean ms per ``forward`` spent in each leaf layer type of ``model``.

    Every leaf module's ``forward`` is wrapped from outside for the duration
    of the call, so the timed cases never pay for it.  A conv that
    ``Sequential`` folds with its batch norm and activation never calls those
    ``forward``s; the fused kernel's time is booked under the conv's kind.
    ``other`` is what the forward spends outside leaf layers (residual adds,
    sub-network plumbing).
    """
    totals: Dict[str, float] = {}

    def book(kind: str, run: Callable, *args, **kwargs):
        begin = time.perf_counter()
        try:
            return run(*args, **kwargs)
        finally:
            totals[kind] = totals.get(kind, 0.0) + time.perf_counter() - begin

    leaves = [module for _, module in model.named_modules() if not module._modules]
    for module in leaves:
        # An instance attribute shadows the method.
        module.forward = functools.partial(book, _layer_kind(module), module.forward)
    fused = containers.conv_batch_norm
    containers.conv_batch_norm = (
        lambda conv, *args: book(_layer_kind(conv), fused, conv, *args))
    try:
        forward()  # warm-up
        totals.clear()
        begin = time.perf_counter()
        for _ in range(repeats):
            forward()
        elapsed = time.perf_counter() - begin
    finally:
        containers.conv_batch_norm = fused
        for module in leaves:
            del module.forward
    breakdown = {kind: seconds / repeats * 1e3
                 for kind, seconds in sorted(totals.items(), key=lambda item: -item[1])}
    breakdown["other"] = elapsed / repeats * 1e3 - sum(breakdown.values())
    return breakdown


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------
def check_regressions(results: Dict[str, Dict[str, float]], baseline: Dict[str, object],
                      max_regression: float) -> List[str]:
    """Names of benchmarks that regressed more than ``max_regression``x.

    A benchmark counts as regressed only when *both* its median and its min
    exceed the threshold — ``min_s`` is the noise-robust statistic, requiring
    the median too avoids flagging a single lucky baseline sample.
    """
    offenders: List[str] = []
    for name, stats in baseline.get("results", {}).items():
        current = results.get(name)
        if current is None or "median_s" not in stats or "median_s" not in current:
            continue
        median_ratio = current["median_s"] / stats["median_s"] if stats["median_s"] else 0.0
        min_ratio = current["min_s"] / stats["min_s"] if stats.get("min_s") else median_ratio
        if median_ratio > max_regression and min_ratio > max_regression:
            offenders.append(f"{name}: {median_ratio:.2f}x median / {min_ratio:.2f}x min "
                             f"slower than baseline (limit {max_regression:.1f}x)")
    return offenders


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run(output_path: str, scale: str, baseline_path: str = "",
        max_regression: float = 2.0, seed: int = 0) -> Dict[str, object]:
    if baseline_path and not os.path.exists(baseline_path):
        raise SystemExit(f"baseline report not found: {baseline_path}")
    # One BLAS thread: on a small shared machine OpenBLAS's thread hand-off
    # can stall a whole step for milliseconds and trip the regression gate.
    blas_threads = pin_blas_to_one_thread()
    tiny = scale == "tiny"
    repeats = 3 if tiny else 10
    # Seed the RNG explicitly so cross-run / cross-version CI comparisons are
    # apples-to-apples (same weights, same inputs).
    rng = np.random.default_rng(seed)
    print(f"# bench_nn_micro scale={scale} seed={seed} "
          f"dtype={np.dtype(_default_dtype()).name} numpy={np.__version__} "
          f"python={platform.python_version()} machine={platform.machine()} "
          f"blas_threads={blas_threads}")

    benches: Dict[str, Callable[[], None]] = {
        "conv2d_dense_step": bench_conv2d_dense(rng, tiny),
        "conv2d_depthwise_step": bench_conv2d_depthwise(rng, tiny),
        "linear_step": bench_linear(rng, tiny),
        "attention_block_step": bench_attention_block(rng, tiny),
        "lenet_train_step": bench_lenet_step(rng, tiny),
        "mobilenet_train_step": bench_mobilenet_step(rng, tiny),
        "augmented_mobilenet_train_step": bench_augmented_mobilenet_step(rng, tiny),
        "batch_norm_train_step": bench_batch_norm_train(rng, tiny),
    }

    results: Dict[str, Dict[str, float]] = {}

    def record(name: str, fn: Callable[[], None]) -> None:
        results[name] = time_fn(fn, repeats)
        print(f"{name:28s} median {results[name]['median_s'] * 1e3:9.3f} ms "
              f"(min {results[name]['min_s'] * 1e3:9.3f} ms, n={repeats})")

    for name, fn in benches.items():
        record(name, fn)

    results.update(bench_augmented_overhead(rng, tiny, max(2, repeats // 2)))
    print(f"{'augmented_overhead_x':28s} {results['augmented_overhead_x']['ratio']:.2f}x")

    # The served models are built only now, so their set-up never runs
    # ahead of the primitives above.
    served_layers: Dict[str, Dict[str, float]] = {}
    for kind in ("lenet", "mobilenet"):
        model, queries = _served_job(kind)
        forward = bench_served_forward(model, queries)
        record(f"served_forward_{kind}", forward)
        faults = minor_faults_per_call(forward, repeats)
        results[f"served_forward_{kind}"]["minor_faults_per_call"] = faults
        print(f"served_forward_{kind} minor page faults per call: {faults}")
        served_layers[kind] = layer_breakdown(model, forward, repeats)
        print(f"served_forward_{kind} ms per layer type: "
              + ", ".join(f"{name} {ms:.2f}" for name, ms in served_layers[kind].items()))

    report: Dict[str, object] = {
        "suite": "bench_nn_micro",
        "scale": scale,
        "default_dtype": str(np.dtype(_default_dtype())),
        "no_grad_available": hasattr(nn, "no_grad"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": blas_threads,
        "seed": seed,
        "results": results,
        "served_forward_layers_ms": served_layers,
    }
    offenders: List[str] = []
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        speedups = {}
        for name, stats in baseline.get("results", {}).items():
            if "median_s" in stats and name in results and results[name]["median_s"] > 0:
                speedups[name] = round(stats["median_s"] / results[name]["median_s"], 3)
                print(f"{name:28s} {speedups[name]:.2f}x vs baseline")
        report["baseline"] = {
            "path": baseline_path,
            "default_dtype": baseline.get("default_dtype"),
            "results": baseline.get("results"),
        }
        report["speedup_vs_baseline"] = speedups
        if baseline.get("scale") not in (None, scale):
            print(f"WARNING: baseline scale={baseline.get('scale')!r} != current scale "
                  f"{scale!r}; skipping the regression gate")
        elif max_regression > 0:
            offenders = check_regressions(results, baseline, max_regression)
            report["regressions"] = offenders
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {output_path}")
    if offenders:
        print(f"REGRESSION GATE FAILED ({len(offenders)} primitive(s) > "
              f"{max_regression:.1f}x slower than {baseline_path}):")
        for line in offenders:
            print(f"  {line}")
        raise SystemExit(1)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_nn_micro.json",
                        help="where to write the JSON report")
    parser.add_argument("--scale", default=os.environ.get("REPRO_SCALE", "full"),
                        choices=("tiny", "full"), help="workload size")
    parser.add_argument("--baseline", default="",
                        help="previous BENCH_nn_micro.json to diff against; also arms the "
                             "regression gate (exit 1 when any primitive exceeds "
                             "--max-regression)")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when any benchmark is this many times slower than the "
                             "baseline (0 disables the gate; default 2.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for weights/inputs (explicit so CI runs are "
                             "apples-to-apples)")
    args = parser.parse_args()
    run(args.output, args.scale, baseline_path=args.baseline,
        max_regression=args.max_regression, seed=args.seed)


if __name__ == "__main__":
    main()
