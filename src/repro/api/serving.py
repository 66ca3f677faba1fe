"""Asynchronous serving front-end: many concurrent callers, one batch engine.

The batch engine (PR 1) and the streaming matcher (PR 2) assume a single
driver feeding them whole workloads.  A notification system serving
millions of users looks different: many independent clients each submit
*one* query, publication or subscription at a time, concurrently.
:class:`AsyncDatabase` is the asyncio front-end that turns that traffic
shape back into batches:

* every request (``query`` / ``query_many`` / ``publish`` / ``subscribe`` /
  ``unsubscribe``) enqueues onto one FIFO and immediately returns an
  awaitable future; ``query_many`` is **one** request however many boxes
  it carries, and ``query`` is its one-box case;
* a single worker drains the queue in **ticks**: a tick begins with the
  first waiting request and closes when ``max_batch_size`` requests have
  accumulated or the first request has waited ``max_delay_ms`` — the same
  size-or-deadline micro-batching discipline as the streaming matcher;
* the tick is processed on a worker thread (the NumPy verification kernels
  release the GIL, so the event loop keeps accepting requests): the boxes
  of a run of adjacent query requests sharing a relation are spliced into
  one ``execute_batch`` call, and each request gets its own slice of the
  results; each run of adjacent publishes is one
  :meth:`~repro.engine.matcher.StreamingMatcher.match` call on the attached
  session, and subscribes / unsubscribes are applied one at a time;
* requests reach the backend strictly in arrival order — a publish is
  matched before any later request of its tick runs — so every caller
  observes exactly the result a sequential execution of the same request
  sequence would produce (``tests/api/test_serving.py`` pins this);
* a failing request fails its own future and nothing else: a malformed
  query or publish fails alone (a ``query_many`` with one malformed box
  fails as a whole and runs none of its boxes), a failing
  ``execute_batch`` or ``match``
  fails the requests of its run (they are not retried one at a time), and
  the tick carries on.

The front-end is backend-agnostic: wrap a :class:`~repro.api.database.Database`
over any protocol-satisfying backend, including a
:class:`~repro.api.sharding.ShardedDatabase` — concurrent clients, batched
scatter-gather execution, one awaitable per request.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.api.database import Database
from repro.api.protocol import QueryResult, SpatialBackend
from repro.engine.matcher import MatchRecord, StreamingConfig, StreamingMatcher
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of the asynchronous front-end.

    Parameters
    ----------
    max_batch_size:
        Number of waiting requests that closes a tick immediately.
    max_delay_ms:
        How long the first request of a tick may additionally wait for
        company once the queue has gone idle.  The default 0 is **greedy
        batching**: a tick collects everything already queued (plus
        whatever runnable tasks enqueue when the worker yields once) and
        is served immediately — concurrent callers still coalesce, and a
        lone caller never waits.  Positive values trade latency for bigger
        ticks under open-loop traffic (callers that fire and move on);
        they hurt closed-loop callers, which cannot submit again until the
        tick they are waiting on is served.
    relation:
        Default spatial relation of ``query`` requests (overridable per
        call).
    matcher:
        Configuration of the attached pub/sub session.  Only its
        ``cache_size`` and ``relation`` apply to served publishes (the
        front-end hands each run of publishes to the session's ``match``,
        so its batching triggers never fire).  Defaults to
        ``StreamingConfig(relation=CONTAINS)``.
    """

    max_batch_size: int = 256
    max_delay_ms: float = 0.0
    relation: SpatialRelation = SpatialRelation.INTERSECTS
    matcher: Optional[StreamingConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        object.__setattr__(self, "relation", SpatialRelation.parse(self.relation))


@dataclass
class ServingStats:
    """Aggregate statistics of one front-end's lifetime."""

    #: Requests completed, by kind (failed ones included); ``queries``
    #: counts boxes, so a ``query_many`` of *m* boxes adds *m*.
    queries: int = 0
    publishes: int = 0
    subscribes: int = 0
    unsubscribes: int = 0
    #: Requests that finished with an exception instead of a result.
    failed: int = 0
    #: Ticks processed (a tick is one drained micro-batch of requests).
    ticks: int = 0
    #: ``execute_batch`` calls issued (coalesced query runs).
    query_batches: int = 0
    #: Ticks closed by the size trigger vs the deadline trigger.
    size_ticks: int = 0
    deadline_ticks: int = 0

    @property
    def requests(self) -> int:
        """Total requests completed (including failed ones)."""
        return self.queries + self.publishes + self.subscribes + self.unsubscribes

    def average_tick_size(self) -> float:
        """Mean number of requests per processed tick."""
        if self.ticks == 0:
            return 0.0
        return self.requests / self.ticks

    def as_dict(self) -> Dict[str, object]:
        """Flatten the statistics for reporting / JSON."""
        return {
            "requests": self.requests,
            "queries": self.queries,
            "publishes": self.publishes,
            "subscribes": self.subscribes,
            "unsubscribes": self.unsubscribes,
            "failed": self.failed,
            "ticks": self.ticks,
            "query_batches": self.query_batches,
            "size_ticks": self.size_ticks,
            "deadline_ticks": self.deadline_ticks,
            "average_tick_size": self.average_tick_size(),
        }


#: One enqueued request: (kind, payload, future).  Payloads by kind:
#: ``query`` → (boxes, relation); ``publish`` → (event_id, box);
#: ``subscribe`` → (subscription_id, box); ``unsubscribe`` → subscription_id.
_Request = Tuple[str, object, "asyncio.Future[object]"]
#: The backend input of one request: a query's boxes, a publish's (event_id, box).
_Item = TypeVar("_Item")

#: A held-back acknowledgement of a group-committed tick: (future, result,
#: error) — dispatched only after the tick's WAL fsync.
_Resolution = Tuple["asyncio.Future[object]", object, Optional[BaseException]]


class AsyncDatabase:
    """Micro-batching asyncio front-end over one (possibly sharded) database.

    Use as an async context manager::

        async with AsyncDatabase(db) as served:
            result = await served.query(box)
            record = await served.publish(1, event_box)

    or call :meth:`start` / :meth:`close` explicitly.  All request methods
    are safe to call concurrently from any number of tasks on the same
    event loop; each returns when its request (and everything queued before
    it) has been processed.
    """

    def __init__(
        self,
        database: "Database | SpatialBackend",
        config: Optional[ServingConfig] = None,
    ) -> None:
        if not isinstance(database, Database):
            database = Database(database)
        self._database = database
        self._config = config or ServingConfig()
        self._matcher = database.session(
            self._config.matcher or StreamingConfig(relation=SpatialRelation.CONTAINS)
        )
        #: Non-None only while a group-committed tick is processing: the
        #: resolutions held back until the tick's WAL fsync (see
        #: _process_tick / _resolve).
        self._deferred: Optional[List[_Resolution]] = None
        self._queue: "Optional[asyncio.Queue[Optional[_Request]]]" = None
        self._worker: "Optional[asyncio.Task[None]]" = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._stats = ServingStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The served database facade."""
        return self._database

    @property
    def config(self) -> ServingConfig:
        """The serving configuration."""
        return self._config

    @property
    def stats(self) -> ServingStats:
        """Aggregate statistics (mutated as ticks are processed)."""
        return self._stats

    @property
    def matcher(self) -> StreamingMatcher:
        """The attached pub/sub session (for its cache / churn statistics)."""
        return self._matcher

    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._worker is not None and not self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncDatabase":
        """Start the worker; idempotent until :meth:`close`."""
        if self._closed:
            raise RuntimeError("AsyncDatabase is closed")
        if self._worker is None:
            self._loop = asyncio.get_running_loop()
            self._queue = asyncio.Queue()
            self._worker = self._loop.create_task(self._serve())
        return self

    async def close(self) -> None:
        """Drain every queued request, then stop the worker.

        Requests submitted after close begins fail fast with a
        :class:`RuntimeError` (see :meth:`_submit`); every request already
        queued when close was called still resolves.  A cleanly exiting
        worker drains the queue itself before returning; if the worker
        task died instead, its exception is contained until the queue has
        been drained — each stranded future is failed with the worker's
        error rather than left to hang a caller forever — and then
        re-raised.
        """
        if self._closed:
            return
        self._closed = True
        if self._worker is not None:
            assert self._queue is not None
            worker, self._worker = self._worker, None
            worker_error: Optional[BaseException] = None
            if not worker.done():
                await self._queue.put(None)
            try:
                await worker
            except BaseException as error:  # noqa: B036 - workers can die with anything
                worker_error = error
            # Anything still queued means the worker died mid-serve (a
            # clean exit drains before returning): resolve the stranded
            # futures so their callers do not await forever.
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is None:
                    continue
                stranded = item[2]
                _set_future_exception(
                    stranded,
                    worker_error
                    if worker_error is not None
                    else RuntimeError(
                        "AsyncDatabase closed before this request was served"
                    ),
                )
            if worker_error is not None:
                raise worker_error

    async def __aenter__(self) -> "AsyncDatabase":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str | None" = None,
    ) -> QueryResult:
        """Execute one query; batched with concurrently submitted requests."""
        return (await self.query_many([query], relation))[0]

    async def query_many(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str | None" = None,
    ) -> List[QueryResult]:
        """Execute several queries as one request; one result per query.

        The request succeeds or fails as a whole: one box of the wrong
        dimensionality fails it before any of its boxes runs.
        """
        parsed = (
            self._config.relation if relation is None else SpatialRelation.parse(relation)
        )
        boxes = list(queries)
        if not boxes:
            return []
        results = await self._submit("query", (boxes, parsed))
        assert isinstance(results, list)
        return results

    async def publish(self, event_id: int, box: HyperRectangle) -> MatchRecord:
        """Publish one event; resolves with its delivered :class:`MatchRecord`."""
        result = await self._submit("publish", (int(event_id), box))
        assert isinstance(result, MatchRecord)
        return result

    async def subscribe(self, subscription_id: int, box: HyperRectangle) -> None:
        """Register a standing subscription."""
        await self._submit("subscribe", (int(subscription_id), box))

    async def unsubscribe(self, subscription_id: int) -> None:
        """Drop a standing subscription (ignored when not registered)."""
        await self._submit("unsubscribe", int(subscription_id))

    async def _submit(self, kind: str, payload: object) -> object:
        if self._worker is None or self._closed:
            raise RuntimeError(
                "AsyncDatabase is not serving; use 'async with AsyncDatabase(...)' "
                "or call start()"
            )
        if self._worker.done():
            # The worker task died; enqueueing would strand this future
            # forever.  Fail fast — close() surfaces the worker's error.
            raise RuntimeError(
                "AsyncDatabase worker has stopped; close() the front-end "
                "to surface its failure"
            )
        assert self._loop is not None and self._queue is not None
        future: "asyncio.Future[object]" = self._loop.create_future()
        await self._queue.put((kind, payload, future))
        return await future

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    async def _serve(self) -> None:
        assert self._loop is not None and self._queue is not None
        queue = self._queue
        # One persistent getter task survives tick deadlines: cancelling a
        # timed ``queue.get`` can race its completion and lose the item, so
        # a get that outlives its tick is simply carried into the next one.
        getter: "Optional[asyncio.Task[Optional[_Request]]]" = None
        stop = False
        while not stop:
            if getter is None:
                getter = self._loop.create_task(queue.get())
            first = await getter
            getter = None
            if first is None:
                break
            batch: List[_Request] = [first]
            trigger = "deadline"
            deadline = self._loop.time() + self._config.max_delay_ms / 1000.0
            yielded = False
            while len(batch) < self._config.max_batch_size:
                item: Optional[_Request] = None
                if getter is not None and getter.done():
                    # A timed get from an earlier wait completed meanwhile.
                    item = getter.result()
                    getter = None
                elif getter is None and not queue.empty():
                    item = queue.get_nowait()
                elif getter is None and not yielded:
                    # Greedy batching: one event-loop cycle lets every
                    # runnable submitter enqueue before the tick closes.
                    yielded = True
                    await asyncio.sleep(0)
                    continue
                else:
                    # Nothing ready.  Wait out the configured deadline for
                    # open-loop company; with the default max_delay_ms=0
                    # the tick is served immediately instead.
                    timeout = deadline - self._loop.time()
                    if timeout <= 0:
                        break
                    if getter is None:
                        getter = self._loop.create_task(queue.get())
                    done: Set["asyncio.Task[Optional[_Request]]"] = (
                        await asyncio.wait({getter}, timeout=timeout)
                    )[0]
                    if not done:
                        break  # deadline hit; the pending get carries over
                    item = getter.result()
                    getter = None
                if item is None:
                    stop = True
                    break
                batch.append(item)
                yielded = False
            else:
                trigger = "size"
            await self._loop.run_in_executor(None, self._process_tick, batch, trigger)
        if getter is not None:
            if getter.done():
                item = getter.result()
                if item is not None:
                    await self._loop.run_in_executor(
                        None, self._process_tick, [item], "close"
                    )
            else:
                getter.cancel()
        # Drain anything enqueued between the close sentinel and worker exit.
        leftovers: List[_Request] = []
        while not queue.empty():
            item = queue.get_nowait()
            if item is not None:
                leftovers.append(item)
        if leftovers:
            await self._loop.run_in_executor(None, self._process_tick, leftovers, "close")

    def _process_tick(self, batch: List[_Request], trigger: str) -> None:
        """Process one drained micro-batch, in arrival order, on a thread.

        Runs of adjacent queries sharing a relation collapse into one
        ``execute_batch``, runs of adjacent publishes into one matcher
        ``match``, and churn is applied request by request, so every request
        reaches the backend in arrival order.  A failing request resolves
        its own future with the exception and the tick carries on — one bad
        request cannot stall its neighbours.

        Over a durable backend the whole tick runs inside one
        ``group_commit`` block: the tick's subscription churn is
        write-ahead logged record by record but fsynced once, at tick end
        (group commit), so durability costs one sync per tick instead of
        one per mutation.  Future resolutions are deferred until the block
        has exited — a caller must never observe its acknowledgement
        before the fsync that makes the mutation durable.
        """
        self._stats.ticks += 1
        if trigger == "size":
            self._stats.size_ticks += 1
        elif trigger == "deadline":
            self._stats.deadline_ticks += 1
        group = getattr(self._database.backend, "group_commit", None)
        if group is not None:
            self._deferred = []
            commit_error: Optional[BaseException] = None
            try:
                with group():
                    self._process_requests(batch)
            except BaseException as error:  # noqa: B036 - crash injection raises BaseException
                # The group exit itself failed: the tick's fsync — or, on a
                # replicated backend, a follower acknowledgement — did not
                # complete, so nothing processed this tick may be
                # acknowledged as durable.
                commit_error = error
            finally:
                # The group block has exited; release the acknowledgements —
                # as failures when the commit itself failed.
                deferred, self._deferred = self._deferred, None
                for future, result, error in deferred:
                    if commit_error is not None and error is None:
                        self._stats.failed += 1
                        error = commit_error
                    self._dispatch(future, None if error is not None else result, error)
        else:
            self._process_requests(batch)

    def _process_requests(self, batch: List[_Request]) -> None:
        for (kind, relation), run in itertools.groupby(batch, key=_run_key):
            if kind == "query":
                assert relation is not None
                self._run_query_run(list(run), relation)
            elif kind == "publish":
                self._run_publish_run(list(run))
            else:
                for request in run:
                    self._run_churn(request)

    def _run_query_run(self, run: List[_Request], relation: SpatialRelation) -> None:
        """Splice the boxes of a run of adjacent same-relation query requests
        into one ``execute_batch``; each request resolves with its slice."""
        requests: List[List[HyperRectangle]] = [payload[0] for _, payload, _ in run]  # type: ignore[index]
        self._stats.queries += sum(len(request) for request in requests)
        futures, requests = self._well_formed(run, requests, requests)
        if not requests:
            return
        boxes = [box for request in requests for box in request]
        sizes = [len(request) for request in requests]
        if self._deliver(futures, sizes, self._database.execute_batch, boxes, relation):
            self._stats.query_batches += 1

    def _run_publish_run(self, run: List[_Request]) -> None:
        """Match a run of adjacent publishes with one ``match`` call."""
        self._stats.publishes += len(run)
        events: List[Tuple[int, HyperRectangle]] = [payload for _, payload, _ in run]  # type: ignore[misc]
        futures, events = self._well_formed(run, [[box] for _, box in events], events)
        if events:
            self._deliver(futures, None, self._matcher.match, events)

    def _well_formed(
        self,
        run: List[_Request],
        boxes: Sequence[Sequence[HyperRectangle]],
        items: List[_Item],
    ) -> "Tuple[List[asyncio.Future[object]], List[_Item]]":
        """Fail every request of *run* with a box of the wrong dimensionality.

        ``boxes[i]`` are the boxes and ``items[i]`` the backend input of
        ``run[i]``.  Returns the futures and items of the other requests,
        in arrival order, so a malformed request fails alone.
        """
        dimensions = self._database.dimensions
        futures: "List[asyncio.Future[object]]" = []
        kept: List[_Item] = []
        for (_, _, future), request_boxes, item in zip(run, boxes, items):
            wrong = [box.dimensions for box in request_boxes if box.dimensions != dimensions]
            if not wrong:
                futures.append(future)
                kept.append(item)
            else:
                self._resolve(
                    future,
                    error=ValueError(
                        f"box has {wrong[0]} dimensions, backend expects {dimensions}"
                    ),
                )
        return futures, kept

    def _deliver(
        self,
        futures: "List[asyncio.Future[object]]",
        sizes: Optional[Sequence[int]],
        call: Callable[..., Sequence[object]],
        *args: object,
    ) -> bool:
        """Resolve *futures* with the outcomes of one ``call(*args)``; True on success.

        Future *i* gets outcome *i*, or with *sizes* the next ``sizes[i]``
        outcomes as a list.  If the call raises, every future fails with
        its error: the requests are not retried one at a time, which would
        run the rest twice.
        """
        try:
            outcomes = call(*args)
        except Exception as error:
            for future in futures:
                self._resolve(future, error=error)
            return False
        if sizes is None:
            for future, outcome in zip(futures, outcomes):
                self._resolve(future, result=outcome)
            return True
        start = 0
        for future, size in zip(futures, sizes):
            self._resolve(future, result=list(outcomes[start : start + size]))
            start += size
        return True

    def _run_churn(self, request: _Request) -> None:
        kind, payload, future = request
        try:
            if kind == "subscribe":
                self._stats.subscribes += 1
                subscription_id, box = payload  # type: ignore[misc]
                self._matcher.register(subscription_id, box)
            elif kind == "unsubscribe":
                self._stats.unsubscribes += 1
                self._matcher.unregister(int(payload))  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown request kind: {kind!r}")
        except Exception as error:
            self._resolve(future, error=error)
        else:
            self._resolve(future, result=None)

    def _resolve(
        self,
        future: "asyncio.Future[object]",
        result: object = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if error is not None:
            self._stats.failed += 1
        if self._deferred is not None:
            # Group-committed tick: hold the acknowledgement back until the
            # tick's WAL fsync has happened (see _process_tick).
            self._deferred.append((future, result, error))
            return
        self._dispatch(future, result, error)

    def _dispatch(
        self,
        future: "asyncio.Future[object]",
        result: object,
        error: Optional[BaseException],
    ) -> None:
        assert self._loop is not None
        if error is not None:
            self._loop.call_soon_threadsafe(_set_future_exception, future, error)
        else:
            self._loop.call_soon_threadsafe(_set_future_result, future, result)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AsyncDatabase(requests={self._stats.requests}, "
            f"ticks={self._stats.ticks}, started={self.started})"
        )


def _run_key(request: _Request) -> Tuple[str, Optional[SpatialRelation]]:
    """Group key of a tick's runs: queries by relation, publishes together."""
    kind, payload, _ = request
    if kind == "query":
        return kind, payload[1]  # type: ignore[index]
    return kind, None


def _set_future_result(future: "asyncio.Future[object]", result: object) -> None:
    if not future.done():
        future.set_result(result)


def _set_future_exception(future: "asyncio.Future[object]", error: BaseException) -> None:
    if not future.done():
        future.set_exception(error)


async def run_round_robin(
    served: AsyncDatabase,
    requests: Sequence[Tuple[str, object]],
    clients: int = 1,
) -> List[object]:
    """Deal *requests* round-robin to *clients* concurrent tasks on *served*.

    Each task awaits its requests in order; the returned list is aligned
    with *requests*.  Each request is a ``(kind, payload)`` pair using the
    payload shapes of the request methods (``("query", (box, relation))``,
    ``("publish", (event_id, box))``, ...).  The caller owns *served* —
    read ``served.stats`` afterwards for the tick shape.
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    results: List[object] = [None] * len(requests)

    async def run_client(offset: int) -> None:
        for position in range(offset, len(requests), clients):
            kind, payload = requests[position]
            if kind == "query":
                box, relation = payload  # type: ignore[misc]
                results[position] = await served.query(box, relation)
            elif kind == "publish":
                event_id, box = payload  # type: ignore[misc]
                results[position] = await served.publish(event_id, box)
            elif kind == "subscribe":
                subscription_id, box = payload  # type: ignore[misc]
                results[position] = await served.subscribe(subscription_id, box)
            elif kind == "unsubscribe":
                results[position] = await served.unsubscribe(payload)  # type: ignore[arg-type]
            else:
                raise ValueError(f"unknown request kind: {kind!r}")

    await asyncio.gather(*(run_client(offset) for offset in range(clients)))
    return results


async def serve_requests(
    database: "Database | SpatialBackend",
    requests: Sequence[Tuple[str, object]],
    config: Optional[ServingConfig] = None,
    clients: int = 1,
) -> List[object]:
    """Drive *requests* through a fresh :class:`AsyncDatabase` and close it.

    One-shot convenience over :func:`run_round_robin` for tests and
    examples that do not need the serving statistics afterwards.
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    async with AsyncDatabase(database, config) as served:
        return await run_round_robin(served, requests, clients)
