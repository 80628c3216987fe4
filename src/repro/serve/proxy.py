"""Client-side extraction proxy: the trust boundary of the serving threat model.

The server catalogues and executes *augmented* models only.  Everything
secret — the dataset plan's insertion positions, and which sub-network is the
original — lives in :class:`~repro.core.augmentation_plan.ObfuscationSecrets`
and never crosses the wire.  The proxy sits in front of a server — an
:class:`~repro.serve.server.InferenceServer`, a sharded multi-replica
:class:`~repro.serve.cluster.ClusterRouter`, or any object with the same
``predict`` / ``predict_batch`` surface — and:

1. **augments** each outgoing raw sample, inserting fresh noise at the secret
   positions so the server only ever sees augmented inputs (the same
   vectorised insertion the dataset augmenter applies at training time);
2. **selects** the original sub-network's logits out of the stacked
   per-subnetwork outputs the server returns, discarding the decoy outputs;
3. can **extract** the original model from a downloaded trained bundle via
   :class:`~repro.core.extractor.ModelExtractor`, should the client want to
   stop paying the serving round trip altogether.

The proxy owns a client-side
:class:`~repro.serve.middleware.MiddlewareChain`: every augmented sample is
routed through it before hitting the server, so client-local concerns —
an :class:`~repro.serve.middleware.ObfuscationGuard` enforcing the trust
boundary, a :class:`~repro.serve.middleware.ResponseCache` that skips whole
round trips, telemetry — compose exactly as they do server-side.  The chain
sees *augmented* samples and *stacked* (pre-``select``) server replies, so
nothing secret leaks into cached or logged artefacts beyond what the server
already observes.

``tenant`` scopes the *client-side* chain only: it is deliberately not
forwarded to the server (so any object with a plain ``predict`` /
``predict_batch`` / ``submit`` surface keeps working), which means
server-side per-tenant middleware sees every proxy request as the default
tenant.  Call the server directly when server-side tenancy matters.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..core.augmentation_plan import (
    ImageAugmentationPlan,
    ObfuscationSecrets,
    TextAugmentationPlan,
)
from ..core.config import NoiseSpec
from ..core.extractor import ExtractionReport, ModelExtractor
from ..core.noise import NoiseGenerator
from ..utils.rng import get_rng
from .middleware import (
    MiddlewareChain,
    RequestContext,
    ResponseCache,
    ServeMiddleware,
    sample_fingerprint,
)


class ExtractionProxy:
    """Applies the user's secrets on the client side of the serving boundary."""

    def __init__(
        self,
        secrets: ObfuscationSecrets,
        noise: Optional[NoiseGenerator] = None,
        value_range: Tuple[float, float] = (0.0, 1.0),
        rng: Optional[np.random.Generator] = None,
        middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None] = None,
    ) -> None:
        if secrets.dataset_plan is None:
            raise ValueError("secrets must carry a dataset plan to augment inputs")
        self.secrets = secrets
        self.noise = noise if noise is not None else NoiseGenerator(NoiseSpec())
        self.value_range = value_range
        self.rng = rng if rng is not None else get_rng(secrets.config_seed + 17)
        self.middleware = MiddlewareChain.coerce(middleware)
        # ``(plan, plan.noise_positions())`` for the last plan augmented with.
        # Rebuilding the positions costs more than the rest of a
        # single-sample augmentation; they stay on the client like the plan.
        self._noise_cache: Optional[Tuple[object, np.ndarray]] = None

    @property
    def plan(self):
        return self.secrets.dataset_plan

    @property
    def original_index(self) -> int:
        return self.secrets.original_subnetwork_index

    # ------------------------------------------------------------------
    # Outbound: raw sample -> augmented sample
    # ------------------------------------------------------------------
    def _noise_positions(self, plan) -> np.ndarray:
        """``plan.noise_positions()``, cached while the plan is the same object."""
        cached = self._noise_cache
        if cached is None or cached[0] is not plan:
            cached = self._noise_cache = (plan, plan.noise_positions())
        return cached[1]

    def augment(self, sample: np.ndarray) -> np.ndarray:
        """Augment a single raw sample (image ``(C, H, W)`` or token row ``(L,)``)."""
        return self.augment_batch(np.asarray(sample)[None])[0]

    def augment_batch(self, samples: np.ndarray) -> np.ndarray:
        """Augment a stacked batch of raw samples with fresh noise."""
        plan = self.plan
        samples = np.asarray(samples)
        if isinstance(plan, ImageAugmentationPlan):
            return self._augment_images(samples, plan)
        if isinstance(plan, TextAugmentationPlan):
            return self._augment_tokens(samples, plan)
        raise TypeError(f"unsupported dataset plan type {type(plan).__name__}")

    def _augment_images(self, samples: np.ndarray, plan: ImageAugmentationPlan) -> np.ndarray:
        if samples.shape[1:] != plan.original_shape:
            raise ValueError(
                f"expected samples of shape (N,) + {plan.original_shape}, got {samples.shape}"
            )
        count = samples.shape[0]
        channels = plan.channels
        flat = samples.reshape(count, channels, plan.original_pixels)
        augmented = np.empty((count, channels, plan.augmented_pixels), dtype=samples.dtype)
        noise_positions = self._noise_positions(plan)
        noise_count = noise_positions.shape[1]
        for channel in range(channels):
            values = self.noise.sample_pixels(count * noise_count, self.rng, self.value_range)
            augmented[:, channel, plan.channel_positions[channel]] = flat[:, channel]
            augmented[:, channel, noise_positions[channel]] = values.reshape(
                count, noise_count
            ).astype(samples.dtype)
        return augmented.reshape((count,) + plan.augmented_shape)

    def _augment_tokens(self, samples: np.ndarray, plan: TextAugmentationPlan) -> np.ndarray:
        if samples.ndim != 2 or samples.shape[1] != plan.original_length:
            raise ValueError(
                f"expected token samples of shape (N, {plan.original_length}), got {samples.shape}"
            )
        vocab_size = self.secrets.metadata.get("vocab_size")
        if vocab_size is None:
            raise ValueError("secrets.metadata must carry 'vocab_size' for token augmentation")
        count = samples.shape[0]
        augmented = np.empty((count, plan.augmented_length), dtype=np.int64)
        noise_positions = self._noise_positions(plan)[0]
        values = self.noise.sample_tokens(count * len(noise_positions), self.rng, int(vocab_size))
        augmented[:, plan.positions[0]] = samples
        augmented[:, noise_positions] = values.reshape(count, len(noise_positions))
        return augmented

    # ------------------------------------------------------------------
    # Inbound: stacked sub-network outputs -> original output
    # ------------------------------------------------------------------
    def select(self, stacked_outputs: np.ndarray) -> np.ndarray:
        """Pick the original sub-network's logits out of a stacked server reply."""
        stacked_outputs = np.asarray(stacked_outputs)
        if stacked_outputs.ndim < 2:
            raise ValueError(
                "expected stacked per-subnetwork outputs; did the server run a plain model?"
            )
        return stacked_outputs[self.original_index]

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------
    def _context(
        self, model_id: str, augmented: np.ndarray, raw: np.ndarray, tenant: str
    ) -> RequestContext:
        """Chain context for one outbound request.

        The context carries the *augmented* sample (middlewares like the
        guard inspect the wire artifact) but caches key on the *raw* sample:
        augmentation inserts fresh noise per call, so augmented content never
        repeats even when the client's request does.
        """
        context = RequestContext(
            model_id=model_id, sample=augmented, tenant=tenant, source="client"
        )
        if any(isinstance(middleware, ResponseCache) for middleware in self.middleware):
            context.metadata["cache_key"] = sample_fingerprint(model_id, raw)
        return context

    def predict(
        self, server, model_id: str, sample: np.ndarray, tenant: str = "default"
    ) -> np.ndarray:
        """One obfuscated round trip: augment, (middleware), serve, select.

        Uses ``server.predict`` so any object exposing just that surface
        keeps working for single-sample round trips.
        """
        raw = np.asarray(sample)
        augmented = self.augment(raw)
        if not self.middleware:
            return self.select(server.predict(model_id, augmented))
        context = self._context(model_id, augmented, raw, tenant)

        def run_model(pending: List[RequestContext]) -> None:
            for ctx in pending:
                ctx.response = server.predict(model_id, ctx.sample)

        self.middleware.execute(context, run_model)
        if context.error is not None:
            raise context.error
        return self.select(context.response)

    def predict_batch(
        self, server, model_id: str, samples: Sequence[np.ndarray], tenant: str = "default"
    ) -> List[np.ndarray]:
        raw = np.asarray(samples)
        augmented = self.augment_batch(raw)
        if not self.middleware:  # fast path: no per-sample context plumbing
            outputs = server.predict_batch(model_id, list(augmented))
            return [self.select(output) for output in outputs]
        contexts = [
            self._context(model_id, augmented_sample, raw_sample, tenant)
            for augmented_sample, raw_sample in zip(augmented, raw)
        ]

        def run_model(pending: List[RequestContext]) -> None:
            outputs = server.predict_batch(model_id, [context.sample for context in pending])
            for context, output in zip(pending, outputs):
                context.response = output

        self.middleware.execute_batch(contexts, run_model)
        results: List[np.ndarray] = []
        for context in contexts:
            if context.error is not None:
                raise context.error
            results.append(self.select(context.response))
        return results

    def submit(self, server, model_id: str, sample: np.ndarray, tenant: str = "default"):
        """Concurrent-mode round trip; returns a future resolving to original logits.

        The chain's descent (guard/cache/limiter) runs synchronously before
        the request crosses to the server; the unwind runs in the server
        future's done-callback, so ``on_response`` still observes the stacked
        reply (or the failure) exactly as in the synchronous path.
        """
        raw = np.asarray(sample)
        context = self._context(model_id, self.augment(raw), raw, tenant)
        wrapped: Future = Future()
        entered = self.middleware.enter(context)

        def _finish() -> None:
            self.middleware.exit(context, entered)
            if context.error is not None:
                wrapped.set_exception(context.error)
                return
            try:
                wrapped.set_result(self.select(context.response))
            except Exception as selection_error:  # noqa: BLE001
                wrapped.set_exception(selection_error)

        if context.answered:  # short-circuited or rejected client-side
            _finish()
            return wrapped

        # ``tenant`` scopes the client-side chain; it is not forwarded so any
        # object with a plain ``submit(model_id, sample)`` surface still works.
        # Once middlewares have entered, a synchronous submit failure must
        # unwind them and arrive via the future like every other failure; with
        # no chain state at stake it raises here, matching the pre-middleware
        # behaviour existing callers rely on.  Either way the caller sees the
        # server's *typed* lifecycle error (``ServerStopped`` for a server
        # stopped mid-flight, ``ServerOverloaded`` for a full queue) rather
        # than a bare exception fished out of a dead future.
        try:
            future = server.submit(model_id, context.sample)
        except Exception as submit_error:  # noqa: BLE001
            if not entered:
                raise
            context.error = submit_error
            _finish()
            return wrapped

        def _resolve(done) -> None:
            # Exceptions raised inside a done-callback are logged and dropped
            # by concurrent.futures, which would leave ``wrapped`` pending
            # forever — route every failure into the wrapped future instead.
            try:
                error = done.exception()
                if error is not None:
                    context.error = error
                else:
                    context.response = done.result()
                _finish()
            except Exception as callback_error:  # noqa: BLE001
                wrapped.set_exception(callback_error)

        future.add_done_callback(_resolve)
        return wrapped

    # ------------------------------------------------------------------
    # Offline extraction (download path)
    # ------------------------------------------------------------------
    def extract_model(self, bundle, model_factory: Callable[[], nn.Module]) -> ExtractionReport:
        """Recover the trained original model from a downloaded augmented bundle."""
        extractor = ModelExtractor(model_factory)
        return extractor.extract_from_state(bundle.state_dict(), self.original_index)
