"""The interception chain: composes middlewares around model execution.

``MiddlewareChain`` is the one pipeline all request flow passes through —
the server's execution (on a worker or the caller's thread), the cluster
router and the client proxy all build :class:`RequestContext` objects and
hand them here, so a middleware written once observes every host identically.

Semantics (pinned by ``tests/serve/test_middleware.py``):

* ``on_request`` runs in registration order; the first middleware to set a
  response (short-circuit) or raise (rejection) stops the descent.
* ``on_batch`` runs in registration order once per coalesced batch, over the
  contexts that still need the model.
* On the way out, ``on_error`` (when an error is set) and ``on_response`` run
  in reverse order for exactly the middlewares whose ``on_request``
  completed — an error raised by middleware *i* still unwinds middlewares
  ``0..i-1``.
* ``on_error`` may recover (clear ``context.error``, set a response); outer
  middlewares then see a success.

Every hook invocation is timed into ``context.timings``; :meth:`exit` then
records the whole breakdown into the host-attached ``context.stats``, so every
request is counted whatever the stack's order or contents.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .base import BatchContext, MiddlewareError, RequestContext, ServeMiddleware

RunModel = Callable[[List[RequestContext]], None]


class MiddlewareChain:
    """An ordered, immutable-by-iteration stack of :class:`ServeMiddleware`."""

    def __init__(self, middlewares: Iterable[ServeMiddleware] = ()) -> None:
        self._middlewares: List[ServeMiddleware] = []
        for middleware in middlewares:
            self.add(middleware)

    @classmethod
    def coerce(
        cls, middleware: "Union[MiddlewareChain, Iterable[ServeMiddleware], None]"
    ) -> "MiddlewareChain":
        """Normalize a constructor argument: a chain passes through (shared
        state intact), an iterable becomes a new chain, ``None`` an empty one."""
        if isinstance(middleware, cls):
            return middleware
        return cls(middleware or ())

    def add(self, middleware: ServeMiddleware) -> "MiddlewareChain":
        """Append ``middleware`` (outermost first: registration order = descent order)."""
        if not isinstance(middleware, ServeMiddleware):
            raise TypeError(f"expected a ServeMiddleware, got {type(middleware).__name__}")
        self._middlewares.append(middleware)
        return self

    @property
    def middlewares(self) -> Tuple[ServeMiddleware, ...]:
        return tuple(self._middlewares)

    def __len__(self) -> int:
        return len(self._middlewares)

    def __iter__(self) -> Iterator[ServeMiddleware]:
        return iter(self._middlewares)

    def __bool__(self) -> bool:
        return bool(self._middlewares)

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _timed(
        context: RequestContext, key: str, hook: Callable[..., None], *args: object
    ) -> None:
        begin = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            hook(*args)
        except BaseException as hook_error:
            error = hook_error
            raise
        finally:
            end = time.perf_counter()
            context.timings[key] = context.timings.get(key, 0.0) + end - begin
            trace = context.trace
            # The hook was already timed for ``context.timings``; the span
            # reuses that measured interval rather than reading the clock
            # again, so timings and traces can never disagree.  An unsampled,
            # error-free interval could never be retained, so the sampled
            # check (one attribute read) keeps the tracing-off path inside
            # the benchmark's overhead gate.
            if trace is not None and (trace.sampled or error is not None):
                trace.record(key, begin, end, error=error)

    def enter(self, context: RequestContext) -> List[ServeMiddleware]:
        """Run the ``on_request`` descent; returns the middlewares that entered.

        Exposed (with :meth:`exit`) so callers that cross an async boundary —
        the proxy's ``submit`` — can split the descent from the unwind.
        """
        entered: List[ServeMiddleware] = []
        for middleware in self._middlewares:
            try:
                self._timed(
                    context,
                    f"{middleware.name}.on_request",
                    middleware.on_request,
                    context,
                )
            except Exception as error:  # noqa: BLE001 - typed rejections included
                context.error = error
                break
            entered.append(middleware)
            if context.response is not None:
                context.metadata.setdefault("short_circuited_by", middleware.name)
                break
        return entered

    def exit(self, context: RequestContext, entered: Sequence[ServeMiddleware]) -> None:
        """Unwind ``on_error``/``on_response`` in reverse order over ``entered``,
        then stamp ``timings["total"]`` and record the request's timings."""
        for middleware in reversed(entered):
            if context.error is not None:
                try:
                    self._timed(
                        context,
                        f"{middleware.name}.on_error",
                        middleware.on_error,
                        context,
                    )
                except Exception as error:  # noqa: BLE001
                    context.error = error
            try:
                self._timed(
                    context,
                    f"{middleware.name}.on_response",
                    middleware.on_response,
                    context,
                )
            except Exception as error:  # noqa: BLE001
                context.error = error
        context.timings["total"] = time.perf_counter() - context.created_at
        stats = context.stats
        if stats is not None:
            if context.error is not None:
                outcome: Optional[str] = "error"
            elif context.metadata.get("cache") == "hit":
                outcome = "cache_hit"
            else:
                outcome = None
            stats.record_request(context.timings, outcome)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, context: RequestContext, run_model: RunModel) -> RequestContext:
        """Run one request through the full chain (a batch of one)."""
        self.execute_batch([context], run_model)
        return context

    def execute_batch(
        self, contexts: Sequence[RequestContext], run_model: RunModel
    ) -> Sequence[RequestContext]:
        """Run one coalesced batch of same-model requests through the chain.

        ``run_model`` receives the contexts that were neither short-circuited
        nor rejected and must set each one's ``response``.  Each context ends
        up with exactly one outcome: a response or an error.
        """
        if not contexts:
            return contexts
        model_id = contexts[0].model_id
        for context in contexts:
            if context.model_id != model_id:
                raise ValueError(
                    "execute_batch requires same-model contexts; got "
                    f"'{context.model_id}' alongside '{model_id}'"
                )

        entered = [self.enter(context) for context in contexts]
        pending = [context for context in contexts if not context.answered]
        if pending:
            self._run_pending(model_id, pending, run_model)
        for context, middlewares in zip(contexts, entered):
            self.exit(context, middlewares)
        return contexts

    @staticmethod
    def _record_batch_spans(
        pending: Sequence[RequestContext],
        key: str,
        begin: float,
        end: float,
        batch_size: int,
        error: Optional[BaseException] = None,
    ) -> None:
        # Batch stages run once for the whole coalesced batch, so every traced
        # context gets a span over the *shared* real interval (nesting stays
        # within the request span) annotated with the batch size.
        for context in pending:
            trace = context.trace
            if trace is not None and (trace.sampled or error is not None):
                trace.record(
                    key, begin, end, error=error, attributes={"batch_size": batch_size}
                )

    def _run_pending(
        self, model_id: str, pending: List[RequestContext], run_model: RunModel
    ) -> None:
        # Batch-level stages happen once for the whole coalesced batch, so
        # each context records its per-request *share* — stage totals stay
        # additive when ModelStats sums them across requests.
        batch = BatchContext(model_id=model_id, contexts=pending)
        batch_size = len(pending)
        for middleware in self._middlewares:
            key = f"{middleware.name}.on_batch"
            begin = time.perf_counter()
            try:
                middleware.on_batch(batch)
            except Exception as error:  # noqa: BLE001 - fails the whole batch
                end = time.perf_counter()
                for context in pending:
                    context.error = error
                self._record_batch_spans(
                    pending, key, begin, end, batch_size, error=error
                )
                return
            end = time.perf_counter()
            share = (end - begin) / batch_size
            for context in pending:
                context.timings[key] = context.timings.get(key, 0.0) + share
            self._record_batch_spans(pending, key, begin, end, batch_size)
        begin = time.perf_counter()
        model_error: Optional[BaseException] = None
        try:
            run_model(pending)
        except Exception as error:  # noqa: BLE001 - fails every unanswered request
            model_error = error
            for context in pending:
                if not context.answered:
                    context.error = error
        finally:
            end = time.perf_counter()
            share = (end - begin) / batch_size
            for context in pending:
                context.timings["model"] = share
            self._record_batch_spans(
                pending, "model", begin, end, batch_size, error=model_error
            )
        for context in pending:
            if not context.answered:
                context.error = MiddlewareError(
                    f"model execution produced no response for '{model_id}'"
                )
