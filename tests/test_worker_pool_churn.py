"""Worker-pool churn: crash respawn, elastic drain, and their interaction.

The elastic pool's supervision contract under test:

* a worker whose thread dies is respawned while the ``max_restarts``
  budget lasts, and its in-flight task is requeued, never lost;
* scale-down drains workers at batch boundaries and leaves no zombie
  threads behind — ``alive`` stays an accurate census of OS threads;
* the two compose: a crash while retirement tokens are outstanding
  satisfies a token instead of spending restart budget, so resize and
  supervision accounting never double-count a worker.
"""

import threading
import time

import pytest

from repro.core.study import StudyConfig
from repro.datasets.world import WorldParams
from repro.loadgen import build_population
from repro.service import (
    AutoscalerConfig,
    IngestQueue,
    MicroBatcher,
    OracleWorkerPool,
    ScanService,
    ScanTask,
    ServiceConfig,
    WorkerCrashed,
)

SEED = 7

PARAMS = WorldParams(n_top_sites=4, n_bottom_sites=4, n_other_sites=4,
                     n_feed_sites=2,
                     n_benign_campaigns=8, n_malicious_campaigns=2,
                     variants_per_benign=1, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, world_params=PARAMS)


@pytest.fixture(scope="module")
def records():
    return build_population(SEED, PARAMS).records


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class PoolHarness:
    """Queue → batcher → pool wiring, as the service facade does it."""

    def __init__(self, n_workers, **pool_kwargs):
        self.queue = IngestQueue(capacity=64)
        self.batcher = MicroBatcher(self.queue, max_size=1)
        self._results_lock = threading.Lock()
        self.results = []
        self.pool = OracleWorkerPool(
            n_workers, STUDY_CONFIG,
            next_batch=lambda: self.batcher.next_batch(timeout=0.02),
            on_result=self._on_result,
            requeue=self.queue.requeue,
            **pool_kwargs)

    def _on_result(self, task, verdict, error):
        with self._results_lock:
            self.results.append((task, verdict, error))

    def submit(self, record):
        self.queue.put(ScanTask(record=record, submitted_at=time.monotonic()))

    def result_count(self):
        with self._results_lock:
            return len(self.results)

    def close(self):
        self.pool.shutdown()
        self.queue.close()
        self.pool.join(timeout=30.0)


def no_scan_worker_zombies():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("scan-worker") and t.is_alive()]


class TestCrashRespawn:
    def test_crashed_worker_is_respawned_and_no_task_is_lost(self, records):
        crashed = threading.Event()

        def crash_first_scan(index, task):
            if not crashed.is_set():
                crashed.set()
                raise WorkerCrashed("injected thread death")

        harness = PoolHarness(1, fault_hook=crash_first_scan, max_restarts=2)
        try:
            harness.pool.start()
            for record in records[:5]:
                harness.submit(record)
            assert wait_until(lambda: harness.result_count() == 5)
            verdicts = [v for _, v, _ in harness.results]
            errors = [e for _, _, e in harness.results]
            assert all(v is not None for v in verdicts)
            assert errors == [None] * 5
            stats = harness.pool.stats()
            assert stats["crashed_total"] == 1
            assert stats["restarts_used"] == 1
            assert stats["spawned_total"] == 2
            assert stats["size"] == 1
            # The crashed thread exits; only the replacement stays alive.
            assert wait_until(lambda: harness.pool.alive == 1)
        finally:
            harness.close()
        assert harness.pool.alive == 0

    def test_restart_budget_exhaustion_stops_respawns(self, records):
        crashes = []
        lock = threading.Lock()

        def always_crash(index, task):
            with lock:
                crashes.append(index)
            raise WorkerCrashed("injected")

        harness = PoolHarness(1, fault_hook=always_crash, max_restarts=2)
        try:
            harness.pool.start()
            harness.submit(records[0])
            # Original + 2 respawns all crash; then the pool stays down.
            assert wait_until(lambda: harness.pool.stats()["crashed_total"] == 3)
            assert wait_until(lambda: harness.pool.alive == 0)
            stats = harness.pool.stats()
            assert stats["restarts_used"] == 2
            assert stats["spawned_total"] == 3
            assert stats["roster"] == 0
        finally:
            harness.close()


class TestElasticDrain:
    def test_scale_down_leaves_no_zombie_threads(self, records):
        before = set(no_scan_worker_zombies())
        config = ServiceConfig(
            seed=SEED, n_workers=1, world_params=PARAMS,
            batch_max_size=2,
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=3,
                                        interval=30.0))
        with ScanService(config) as service:
            pool = service.pool
            assert pool.scale_to(3) == 3
            for record in records:
                service.submit(record)
            service.drain()
            assert pool.scale_to(1) == 1
            # Retired workers surface at the next idle poll and exit.
            assert wait_until(lambda: pool.alive == 1)
            assert len(pool.workers) == 1
            stats = pool.stats()
            assert stats["retired_total"] == 2
            assert stats["pending_retirements"] == 0
            assert stats["peak_size"] == 3
            # Verdicts survived the churn.
            assert service.metrics.counter("scanned").value == len(records)
        assert wait_until(lambda: set(no_scan_worker_zombies()) <= before)

    def test_alive_counts_exactly_the_running_threads(self, records):
        harness = PoolHarness(2)
        try:
            harness.pool.start()
            assert wait_until(lambda: harness.pool.alive == 2)
            harness.pool.scale_to(4)
            assert wait_until(lambda: harness.pool.alive == 4)
            harness.pool.scale_to(1)
            assert wait_until(lambda: harness.pool.alive == 1)
            assert harness.pool.size == 1
            stats = harness.pool.stats()
            assert stats["retired_total"] == 3
            assert stats["min_size"] == 1
        finally:
            harness.close()
        assert harness.pool.alive == 0


class TestCrashDuringResize:
    def test_crash_with_retirement_outstanding_spends_no_restart(self, records):
        """max_restarts accounting must survive a resize.

        Two workers are parked mid-scan, a scale-down to one is issued
        (neither can claim the token while busy), then one worker is
        crashed: the crash must satisfy the pending retirement — costing
        no restart budget — and the survivor must finish the crashed
        worker's requeued task.  A later crash without tokens
        outstanding then spends the budget normally.
        """
        state = {
            "order": [], "both_parked": threading.Event(),
            "gates": {}, "open": threading.Event(),
            "crash": set(), "crashed": set(),
        }
        lock = threading.Lock()

        def hook(index, task):
            with lock:
                if not state["open"].is_set() \
                        and index not in state["gates"]:
                    state["gates"][index] = threading.Event()
                    state["order"].append(index)
                    if len(state["order"]) == 2:
                        state["both_parked"].set()
                gate = state["gates"].get(index)
            if gate is not None:
                gate.wait(timeout=30.0)
            with lock:
                if index in state["crash"] and index not in state["crashed"]:
                    state["crashed"].add(index)
                    raise WorkerCrashed("injected")

        harness = PoolHarness(2, fault_hook=hook, max_restarts=1)
        try:
            harness.pool.start()
            harness.submit(records[0])
            harness.submit(records[1])
            assert state["both_parked"].wait(timeout=60.0)

            assert harness.pool.scale_to(1) == 1
            assert harness.pool.stats()["pending_retirements"] == 1

            # Release only the victim, and hold the survivor parked until
            # the crash has been fully accounted: otherwise the survivor
            # races the crash for the retirement token, and whichever
            # claims it decides whether the crash costs restart budget —
            # the assertions below pin the crash-claims-it interleaving.
            victim = state["order"][0]
            with lock:
                state["crash"].add(victim)
            state["gates"][victim].set()
            assert wait_until(
                lambda: harness.pool.stats()["crashed_total"] == 1
                and harness.pool.stats()["pending_retirements"] == 0)
            state["open"].set()
            state["gates"][state["order"][1]].set()

            # Both tasks resolve: the survivor finishes its own and the
            # requeued one from the crashed worker.
            assert wait_until(lambda: harness.result_count() == 2)
            assert all(v is not None for _, v, _ in harness.results)
            stats = harness.pool.stats()
            assert stats["crashed_total"] == 1
            assert stats["retired_total"] == 1
            assert stats["restarts_used"] == 0  # token consumed, not budget
            assert stats["pending_retirements"] == 0
            assert stats["size"] == 1

            # Without tokens outstanding the budget is spent normally.
            survivor = state["order"][1]
            with lock:
                state["crash"].add(survivor)
            harness.submit(records[2])
            assert wait_until(lambda: harness.result_count() == 3)
            assert all(v is not None for _, v, _ in harness.results)
            stats = harness.pool.stats()
            assert stats["crashed_total"] == 2
            assert stats["restarts_used"] == 1
            assert stats["spawned_total"] == 3
            assert stats["size"] == 1
        finally:
            harness.close()
        assert harness.pool.alive == 0
