"""The ``ScanService`` facade: queue → batcher → worker pool → cache.

One object ties the service subsystem together and owns its lifecycle::

    with ScanService(ServiceConfig(seed=2014, n_workers=2)) as svc:
        tickets = [svc.submit(record) for record in corpus.records()]
        svc.drain()
        verdicts = {t.ad_id: t.result() for t in tickets}
        print(svc.stats())

Submissions hit the verdict cache first; misses are coalesced per
creative (two in-flight submissions of the same creative cost one scan),
queued with backpressure, micro-batched, and scanned by the worker pool.
Every stage feeds the metrics registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.core.oracle import AdVerdict
from repro.core.study import StudyConfig
from repro.crawler.corpus import AdCorpus, AdRecord, content_hash
from repro.datasets.world import WorldParams
from repro.service.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.batcher import MicroBatcher
from repro.service.breaker import DeadLetterLog
from repro.service.cache import VerdictCache
from repro.service.metrics import MetricsRegistry
from repro.service.queue import IngestQueue, QueueClosedError, QueueFullError
from repro.adscript.vm import hotpath_stats
from repro.service.workers import OracleWorkerPool, ScanFaultHook, ScanTask
from repro.store import StoreConfig, StoreWriteError, VerdictStore
from repro.util import lru


class ServiceDegradedError(RuntimeError):
    """Every worker breaker is open; only cached verdicts can be served."""


@dataclass
class ServiceConfig:
    """All the service's knobs in one place."""

    seed: int = 2014
    n_workers: int = 2
    queue_capacity: int = 256
    queue_policy: str = "block"
    batch_max_size: int = 8
    cache_capacity: int = 65536
    cache_ttl: Optional[float] = None
    blacklist_threshold: int = 5
    vt_threshold: int = 4
    world_params: Optional[WorldParams] = None
    #: Attempt budget per submission (1 = no retries).  A failed scan is
    #: requeued — usually onto a different worker — until the budget is
    #: spent, then dead-lettered.
    scan_max_attempts: int = 3
    #: Consecutive failures that trip one worker's circuit breaker; None
    #: disables the breakers (pre-supervision behaviour).
    breaker_threshold: Optional[int] = 3
    #: Seconds an open breaker waits before admitting a half-open probe.
    breaker_cooldown: float = 0.2
    #: Dead-letter log capacity (oldest letters are dropped beyond it).
    dead_letter_capacity: int = 1024
    #: Test/chaos hook: (worker_index, task) → None, raise to simulate a
    #: worker's scan stack failing.
    fault_hook: Optional[ScanFaultHook] = None
    #: Root directory of the persistent verdict store; None runs the
    #: pre-store (memory-cache-only) configuration, bit-identical.
    store_path: Optional[Union[str, Path]] = None
    #: Store knobs (shards, segment size, fsync cadence); None = defaults.
    store_config: Optional[StoreConfig] = None
    #: Elastic pool sizing: a full :class:`AutoscalerConfig`, or the
    #: ``autoscale_min``/``autoscale_max`` shorthand below.  None keeps
    #: the fixed ``n_workers`` pool, bit-identical to the seed.
    autoscaler: Optional[AutoscalerConfig] = None
    autoscale_min: Optional[int] = None
    autoscale_max: Optional[int] = None
    #: How often an idle elastic worker surfaces from the batcher to
    #: check for retirement (seconds).  Only used when autoscaling.
    worker_poll: float = 0.02
    #: Crashed pool workers respawned (in total) before the pool stops
    #: replacing them; 0 = no respawn (the seed behaviour).
    worker_max_restarts: int = 0

    def autoscaler_config(self) -> Optional[AutoscalerConfig]:
        """Resolve the elastic-pool knobs (shorthand or full config)."""
        if self.autoscaler is not None:
            return self.autoscaler
        if self.autoscale_min is None and self.autoscale_max is None:
            return None
        lo = self.autoscale_min if self.autoscale_min is not None else 1
        hi = (self.autoscale_max if self.autoscale_max is not None
              else max(lo, self.n_workers))
        return AutoscalerConfig(min_workers=lo, max_workers=hi)

    def study_config(self) -> StudyConfig:
        """The equivalent batch-pipeline config (for oracle construction)."""
        return StudyConfig(
            seed=self.seed,
            blacklist_threshold=self.blacklist_threshold,
            vt_threshold=self.vt_threshold,
            world_params=self.world_params,
        )


class ScanTicket:
    """A claim on one submission's verdict (a minimal future)."""

    def __init__(self, ad_id: str, content_hash: str,
                 tenant: Optional[str] = None) -> None:
        self.ad_id = ad_id
        self.content_hash = content_hash
        #: Gateway tenant the submission is attributed to (None = direct
        #: caller — the pre-gateway behaviour, bit-identical).
        self.tenant = tenant
        self.from_cache = False
        self._event = threading.Event()
        self._verdict: Optional[AdVerdict] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, verdict: AdVerdict) -> None:
        self._verdict = verdict
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> AdVerdict:
        """Block until the verdict is ready (re-raises scan errors)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"verdict for {self.ad_id} not ready after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._verdict is not None
        return self._verdict


class AttachedTicket(ScanTicket):
    """A sighting's verdict re-keyed to a corpus ad id.

    Mid-crawl sightings are scanned under a canonical content-derived id
    (no merged corpus exists yet to assign a global one); when the
    deterministic merge assigns the creative its ad id, the streaming
    corpus attaches to the sighting through one of these.  Resolution,
    failure and cache provenance all mirror the primary ticket; the
    verdict is relabelled with the adopted ad id on the way out, so the
    bits a caller sees are identical to a serial streamed crawl's.
    """

    def __init__(self, ad_id: str, primary: ScanTicket) -> None:
        # Deliberately no super().__init__: this ticket has no event or
        # verdict of its own — everything delegates to the primary.
        self.ad_id = ad_id
        self.content_hash = primary.content_hash
        self.tenant = primary.tenant
        self._primary = primary

    @property
    def from_cache(self) -> bool:
        return self._primary.from_cache

    @property
    def done(self) -> bool:
        return self._primary.done

    def result(self, timeout: Optional[float] = None) -> AdVerdict:
        verdict = self._primary.result(timeout)
        if verdict.ad_id != self.ad_id:
            verdict = replace(verdict, ad_id=self.ad_id)
        return verdict


def sighting_record(html: str, digest: Optional[str] = None) -> AdRecord:
    """The canonical scan payload for one creative, derived from content only.

    First-sight scans must be a pure function of the creative so that any
    shard's submission — whichever wins the cross-shard race — produces
    the identical verdict.  No impressions are attached (crawl-context
    domains are a merge-time/batch refinement) and the ad id is minted
    from the content hash.
    """
    digest = digest if digest is not None else content_hash(html)
    return AdRecord(
        ad_id=f"sight:{digest[:16]}",
        content_hash=digest,
        html=html,
        first_seen_url="",
        impressions=[],
    )


class _PendingScan:
    """In-flight bookkeeping for one creative (coalesced tickets)."""

    __slots__ = ("tickets",)

    def __init__(self) -> None:
        self.tickets: list[ScanTicket] = []


class _Sighting:
    """Dedup-index entry: the first-submit-wins ticket for one creative."""

    __slots__ = ("ticket", "sighted_at", "latency_observed")

    def __init__(self, ticket: ScanTicket, sighted_at: float) -> None:
        self.ticket = ticket
        self.sighted_at = sighted_at
        self.latency_observed = False


class ScanService:
    """Online advertisement scanning over the combined oracle."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[VerdictCache] = None,
                 store: Optional[VerdictStore] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = cache or VerdictCache(
            capacity=self.config.cache_capacity, ttl=self.config.cache_ttl)
        # The persistent tier: an explicit store wins; otherwise one is
        # opened (with full crash recovery) when the config names a path.
        self._owns_store = store is None and self.config.store_path is not None
        if store is None and self.config.store_path is not None:
            store = VerdictStore(self.config.store_path,
                                 config=self.config.store_config)
        self.store = store
        self.queue = IngestQueue(
            capacity=self.config.queue_capacity,
            policy=self.config.queue_policy,
            wait_observer=self.metrics.histogram("enqueue_wait").observe)
        self.batcher = MicroBatcher(self.queue,
                                    max_size=self.config.batch_max_size)
        self.dead_letters = DeadLetterLog(
            capacity=self.config.dead_letter_capacity)
        scaling = self.config.autoscaler_config()
        if scaling is not None:
            # Elastic pool: start at the floor and let the autoscaler
            # climb; workers poll the batcher with a timeout so idle ones
            # notice retirement instead of blocking in the queue forever.
            initial_workers = scaling.min_workers
            poll = self.config.worker_poll
            next_batch = lambda: self.batcher.next_batch(timeout=poll)  # noqa: E731
            max_workers = scaling.max_workers
        else:
            initial_workers = self.config.n_workers
            next_batch = self.batcher.next_batch
            max_workers = None
        self.pool = OracleWorkerPool(
            initial_workers, self.config.study_config(),
            next_batch=next_batch,
            on_result=self._on_result,
            on_batch=self._on_batch,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown,
            requeue=self.queue.requeue,
            max_attempts=self.config.scan_max_attempts,
            fault_hook=self.config.fault_hook,
            on_retry=self._on_retry,
            max_workers=max_workers,
            max_restarts=self.config.worker_max_restarts,
        )
        self.autoscaler: Optional[Autoscaler] = None
        if scaling is not None:
            self.autoscaler = Autoscaler(self.pool, self.queue,
                                         metrics=self.metrics, config=scaling)
        # Pre-register the standard metrics so stats() has stable keys
        # even before the first submission/scan touches them.
        for name in ("submitted", "cache_hits", "cache_misses", "coalesced",
                     "scanned", "scan_errors", "rejected", "scan_retries",
                     "dead_lettered", "degraded_rejections",
                     "first_sight_submissions", "shard_dedup_hits",
                     "overlapped_scans", "store_hits", "store_misses",
                     "store_write_errors"):
            self.metrics.counter(name)
        self.metrics.gauge("queue_depth")
        self.metrics.gauge("active_crawls")
        self.metrics.histogram("batch_size")
        self.metrics.histogram("scan_latency")
        self.metrics.histogram("first_sight_latency")
        # Compile caches (repro.util.lru) are process-wide; mirror their
        # totals into this service's counters as deltas observed since the
        # service was constructed.
        self._compile_cache_baseline: dict[tuple[str, str], int] = {}
        for name, stats in lru.cache_stats().items():
            for kind in ("hits", "misses"):
                self._compile_cache_baseline[(name, kind)] = stats[kind]
        # VM hot-path counters (superinstructions, inline caches) are
        # process-wide too; same delta treatment.
        self._vm_hotpath_baseline = dict(hotpath_stats())
        self._pending: dict[str, _PendingScan] = {}
        # Cross-shard first-sight dedup: content hash -> the winning
        # sighting.  First submit wins; every later sighting of the same
        # creative (other shards, repeat chunks) attaches to it.
        self._sightings: dict[str, _Sighting] = {}
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ScanService":
        """Spawn the worker pool (idempotent)."""
        with self._state_lock:
            if self._stopped:
                raise RuntimeError("service already shut down")
            if not self._started:
                self._started = True
                self.pool.start()
                if self.autoscaler is not None:
                    self.autoscaler.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service: optionally drain, close the queue, join workers.

        With ``drain=True`` (the default) every accepted submission is
        scanned before the workers exit — the graceful path.  With
        ``drain=False`` the queue closes immediately and queued-but-unscanned
        tickets fail with :class:`QueueClosedError`.
        """
        with self._state_lock:
            if self._stopped:
                return
            self._stopped = True
            started = self._started
        if drain and started:
            self.drain(timeout=timeout)
        if self.autoscaler is not None:
            self.autoscaler.stop(timeout)
        self.pool.shutdown()
        self.queue.close()
        if started:
            self.pool.join(timeout)
        if self.store is not None and self._owns_store:
            # Seal the active segments so the next open replays clean.
            self.store.close()
        # Fail anything still unresolved (non-drain shutdown).
        with self._state_lock:
            orphans = list(self._pending.values())
            self._pending.clear()
            for entry in orphans:
                for ticket in entry.tickets:
                    ticket._fail(QueueClosedError("service shut down"))
            self._idle.notify_all()

    def __enter__(self) -> "ScanService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def submit(self, record: AdRecord, timeout: Optional[float] = None,
               tenant: Optional[str] = None) -> ScanTicket:
        """Submit one advertisement; returns a :class:`ScanTicket`.

        Cache hits resolve immediately.  Misses for a creative already
        in flight coalesce onto the running scan.  Fresh misses enter the
        ingest queue, which applies the configured backpressure policy
        (``timeout`` bounds a blocking put).  ``tenant`` attributes the
        submission (and any dead letter it becomes) to a gateway tenant;
        the default ``None`` is the pre-gateway direct path, bit-identical
        in fingerprints and verdicts.
        """
        ticket = ScanTicket(record.ad_id, record.content_hash, tenant=tenant)
        task: Optional[ScanTask] = None
        with self._state_lock:
            if self._stopped:
                raise QueueClosedError("service is shut down")
            if not self._started:
                raise RuntimeError("service not started (call start())")
            self.metrics.counter("submitted").inc()
            if tenant is not None:
                self.metrics.counter(f"tenant.{tenant}.service_submitted").inc()
            verdict = self.cache.get(record.content_hash)
            if verdict is not None:
                self.metrics.counter("cache_hits").inc()
                if tenant is not None:
                    self.metrics.counter(f"tenant.{tenant}.cache_hits").inc()
                if verdict.ad_id != record.ad_id:
                    # The cached scan may carry another session's (or a
                    # sighting's canonical) ad id; the verdict bits are
                    # content-pure, so relabel for this submission.
                    verdict = replace(verdict, ad_id=record.ad_id)
                ticket.from_cache = True
                ticket._resolve(verdict)
                return ticket
            self.metrics.counter("cache_misses").inc()
            entry = self._pending.get(record.content_hash)
            if entry is not None:
                self.metrics.counter("coalesced").inc()
                if tenant is not None:
                    self.metrics.counter(f"tenant.{tenant}.coalesced").inc()
                entry.tickets.append(ticket)
                return ticket
            if self.store is not None:
                # The persistent tier: a verdict that survived a restart
                # (or a crash) still skips the oracle.  Hits are promoted
                # into the memory cache so repeats stay one dict lookup.
                verdict = self.store.get(record.content_hash)
                if verdict is not None:
                    self.metrics.counter("store_hits").inc()
                    if tenant is not None:
                        self.metrics.counter(
                            f"tenant.{tenant}.store_hits").inc()
                    self.cache.put(record.content_hash, verdict)
                    if verdict.ad_id != record.ad_id:
                        verdict = replace(verdict, ad_id=record.ad_id)
                    ticket.from_cache = True
                    ticket._resolve(verdict)
                    return ticket
                self.metrics.counter("store_misses").inc()
            if self.pool.all_breakers_open:
                # Degraded mode: every worker is refusing work.  Cached
                # verdicts (above) still resolve; fresh scans are refused
                # at the edge instead of piling onto a dead pool.
                self.metrics.counter("degraded_rejections").inc()
                raise ServiceDegradedError(
                    "all worker breakers open; serving cached verdicts only")
            entry = _PendingScan()
            entry.tickets.append(ticket)
            self._pending[record.content_hash] = entry
            # Snapshot the record: streaming crawls keep appending
            # impressions to the live object while the scan runs.
            task = ScanTask(record=_snapshot(record),
                            submitted_at=time.monotonic(), tenant=tenant)
        try:
            self.queue.put(task, timeout=timeout)
        except (QueueFullError, QueueClosedError):
            with self._state_lock:
                self._pending.pop(record.content_hash, None)
                self.metrics.counter("rejected").inc()
                self._idle.notify_all()
            raise
        self.metrics.gauge("queue_depth").set(self.queue.depth)
        return ticket

    def scan_sync(self, record: AdRecord,
                  timeout: Optional[float] = None) -> AdVerdict:
        """Submit one advertisement and wait for its verdict."""
        return self.submit(record, timeout=timeout).result(timeout)

    def submit_corpus(self, corpus: AdCorpus) -> list[ScanTicket]:
        """Submit every unique advertisement of a corpus (in corpus order)."""
        return [self.submit(record) for record in corpus.records()]

    # -- streaming first sights ----------------------------------------------

    def sight(self, html: str, timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> ScanTicket:
        """Submit one first-sight creative, deduplicated across shards.

        The scan payload is the canonical :func:`sighting_record` — a pure
        function of the creative — so it does not matter which shard's
        sighting wins the race: the verdict is identical.  First submit
        wins; later sightings of the same creative attach to the winning
        ticket (in flight or already resolved) and count as
        ``shard_dedup_hits``.  Raising behaviour matches :meth:`submit`
        (``reject`` backpressure and degraded mode propagate).
        """
        digest = content_hash(html)
        with self._state_lock:
            entry = self._sightings.get(digest)
            if entry is not None:
                self._count_dedup_hit(tenant)
                return entry.ticket
        sighted_at = time.monotonic()
        ticket = self.submit(sighting_record(html, digest), timeout=timeout,
                             tenant=tenant)
        with self._state_lock:
            entry = self._sightings.get(digest)
            if entry is not None:
                # Lost a submission race with another shard; the two
                # scans already coalesced inside submit().
                self._count_dedup_hit(tenant)
                return entry.ticket
            entry = _Sighting(ticket, sighted_at)
            self._sightings[digest] = entry
            self.metrics.counter("first_sight_submissions").inc()
            if ticket.done:
                # Resolved before the index entry existed (cache hit, or
                # a scan faster than this bookkeeping).
                self._observe_first_sight(entry)
            return ticket

    def adopt_sighting(self, record: AdRecord,
                       timeout: Optional[float] = None,
                       tenant: Optional[str] = None) -> ScanTicket:
        """Attach ``record`` (with its corpus ad id) to its sighting.

        The deterministic merge calls this as it assigns global ad ids:
        the creative was usually already sighted mid-crawl by some shard,
        so this just re-keys the existing ticket.  A creative that never
        made it through a shard submitter (serial streaming, or a shard
        whose mid-crawl submissions were shed) is sighted now — nothing
        is ever lost, only overlap.
        """
        with self._state_lock:
            entry = self._sightings.get(record.content_hash)
            primary = entry.ticket if entry is not None else None
        if primary is None:
            primary = self.sight(record.html, timeout=timeout, tenant=tenant)
        return AttachedTicket(record.ad_id, primary)

    def _count_dedup_hit(self, tenant: Optional[str]) -> None:
        """One cross-shard dedup hit, attributed when a tenant is known."""
        self.metrics.counter("shard_dedup_hits").inc()
        if tenant is not None:
            self.metrics.counter(f"tenant.{tenant}.shard_dedup_hits").inc()

    def crawl_started(self) -> None:
        """Mark a crawl as feeding this service (overlap accounting)."""
        self.metrics.gauge("active_crawls").inc()

    def crawl_finished(self) -> None:
        """Mark the end of a crawl started with :meth:`crawl_started`."""
        self.metrics.gauge("active_crawls").dec()

    def _observe_first_sight(self, entry: _Sighting) -> None:
        """Record one sighting's submission→verdict latency (locked, once)."""
        if not entry.latency_observed:
            entry.latency_observed = True
            self.metrics.histogram("first_sight_latency").observe(
                time.monotonic() - entry.sighted_at)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every accepted submission has a verdict."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"{len(self._pending)} scans still in flight "
                            f"after {timeout}s")
                self._idle.wait(remaining)

    # -- worker callbacks ----------------------------------------------------

    def _on_batch(self, size: int) -> None:
        self.metrics.histogram("batch_size").observe(size)
        self.metrics.gauge("queue_depth").set(self.queue.depth)

    def _on_retry(self, task: ScanTask) -> None:
        self.metrics.counter("scan_retries").inc()

    def _on_result(self, task: ScanTask, verdict: Optional[AdVerdict],
                   error: Optional[BaseException]) -> None:
        latency = time.monotonic() - task.submitted_at
        store_failed = False
        if verdict is not None and self.store is not None:
            # Append (and fsync) before taking the state lock, so a cache
            # hit never waits behind the disk.  The creative stays in
            # _pending meanwhile: duplicates still coalesce, and tickets
            # resolve only once the verdict is durable.  The store
            # serialises its own writers.
            try:
                self.store.put(task.record.content_hash, verdict)
            except StoreWriteError:
                # The disk refused the append (full, torn); the verdict
                # still serves from memory and the store stays
                # consistent — degrade, don't fail the scan.
                store_failed = True
        with self._state_lock:
            entry = self._pending.pop(task.record.content_hash, None)
            if verdict is not None:
                self.cache.put(task.record.content_hash, verdict)
                if store_failed:
                    self.metrics.counter("store_write_errors").inc()
                self.metrics.counter("scanned").inc()
                if task.tenant is not None:
                    self.metrics.counter(f"tenant.{task.tenant}.scanned").inc()
                self.metrics.histogram("scan_latency").observe(latency)
                if self.metrics.gauge("active_crawls").value > 0:
                    # A verdict landed while a crawl is still running —
                    # the crawl/scan overlap the pipeline exists for.
                    self.metrics.counter("overlapped_scans").inc()
            else:
                self.metrics.counter("scan_errors").inc()
                assert error is not None
                self.dead_letters.record(task.record.ad_id,
                                         task.record.content_hash,
                                         task.attempts, error,
                                         tenant=task.tenant)
                self.metrics.counter("dead_lettered").inc()
            sighting = self._sightings.get(task.record.content_hash)
            if sighting is not None:
                self._observe_first_sight(sighting)
            if entry is not None:
                for ticket in entry.tickets:
                    if verdict is not None:
                        ticket._resolve(verdict)
                    else:
                        assert error is not None
                        ticket._fail(error)
            self.metrics.gauge("queue_depth").set(self.queue.depth)
            self._idle.notify_all()

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """One dict with everything: metrics, cache, queue, batcher, pool."""
        compile_caches = self._sync_compile_cache_metrics()
        snapshot = self.metrics.snapshot()
        snapshot["compile_caches"] = compile_caches
        snapshot["vm_hotpath"] = {
            key: value - self._vm_hotpath_baseline.get(key, 0)
            for key, value in hotpath_stats().items()}
        snapshot["cache"] = self.cache.stats()
        snapshot["queue"] = self.queue.stats()
        snapshot["batcher"] = self.batcher.stats()
        snapshot["pool"] = {
            "workers": len(self.pool.workers),
            "alive": self.pool.alive,
            "scanned": self.pool.total_scanned,
            "breakers": self.pool.breaker_stats(),
            "degraded": self.pool.all_breakers_open,
            **self.pool.stats(),
        }
        if self.autoscaler is not None:
            snapshot["autoscaler"] = self.autoscaler.stats()
        snapshot["dead_letter"] = self.dead_letters.stats()
        if self.store is not None:
            store_stats = self.store.stats()
            snapshot["store"] = store_stats
            # Mirror the load-bearing store numbers into gauges so they
            # ride along with every metrics snapshot/export.
            self.metrics.gauge("store_records").set(store_stats["records"])
            self.metrics.gauge("store_segments_sealed").set(
                store_stats["segments"]["sealed"])
            self.metrics.gauge("store_bloom_hit_ratio").set(
                store_stats["bloom"]["hit_ratio"])
        return snapshot

    def _sync_compile_cache_metrics(self) -> dict:
        """Mirror the process-wide compile caches into this registry.

        Counters carry the hits/misses observed since this service was
        constructed (delta-tracked — the caches are shared by the whole
        process, including activity before the service existed); the
        hit-ratio gauges report each cache's process-wide rate.
        """
        all_stats = lru.cache_stats()
        for name, stats in all_stats.items():
            for kind in ("hits", "misses"):
                key = (name, kind)
                last = self._compile_cache_baseline.get(key, 0)
                delta = stats[kind] - last
                if delta > 0:
                    self.metrics.counter(f"compile_cache_{name}_{kind}").inc(delta)
                self._compile_cache_baseline[key] = stats[kind]
            self.metrics.gauge(f"compile_cache_{name}_hit_ratio").set(
                stats["hit_rate"])
        return all_stats


def _snapshot(record: AdRecord) -> AdRecord:
    """An immutable-enough copy of a record at submission time."""
    return AdRecord(
        ad_id=record.ad_id,
        content_hash=record.content_hash,
        html=record.html,
        first_seen_url=record.first_seen_url,
        sandboxed_anywhere=record.sandboxed_anywhere,
        impressions=list(record.impressions),
    )
