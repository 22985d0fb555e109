"""End-to-end tests for the online scanning service.

The load-bearing guarantee: for a fixed seed, :class:`ScanService`
verdicts are bit-identical to a batch :class:`CombinedOracle` pass over
the same corpus (driven through the same hermetic scan discipline),
regardless of worker count or scan order — and a warm-cache replay never
touches the oracle at all.
"""

import threading
import time

import pytest

from repro.chaos.fs import LocalFileSystem
from repro.core.persistence import verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.schedule import CrawlSchedule
from repro.datasets.world import WorldParams, build_world
from repro.service import (
    QueueClosedError,
    ScanService,
    ServiceConfig,
    hermetic_judge,
    stream_crawl,
)
from repro.adscript.interpreter import Interpreter
from repro.browser.browser import _FrameContext
from repro.service.service import ScanTicket, sighting_record
from repro.store import VerdictStore

SEED = 7

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=1,
                           world_params=PARAMS)


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=SEED, n_workers=2, world_params=PARAMS,
                    batch_max_size=4)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return Study(STUDY_CONFIG).crawl().corpus


@pytest.fixture(scope="module")
def batch_fingerprints(corpus):
    """Batch CombinedOracle verdicts under the hermetic scan discipline."""
    world = build_world(SEED, PARAMS)
    oracle = Study(STUDY_CONFIG, world=world).build_oracle()
    return {
        record.ad_id: verdict_fingerprint(
            hermetic_judge(oracle, world, record, SEED))
        for record in corpus.records()
    }


class TestDeterminism:
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_service_matches_batch_oracle(self, corpus, batch_fingerprints,
                                          n_workers):
        with ScanService(service_config(n_workers=n_workers)) as service:
            tickets = service.submit_corpus(corpus)
            service.drain()
            got = {t.ad_id: verdict_fingerprint(t.result()) for t in tickets}
        assert got == batch_fingerprints

    def test_scan_order_is_irrelevant(self, corpus, batch_fingerprints):
        records = list(reversed(corpus.records()))
        with ScanService(service_config(n_workers=1)) as service:
            tickets = [service.submit(record) for record in records]
            service.drain()
            got = {t.ad_id: verdict_fingerprint(t.result()) for t in tickets}
        assert got == batch_fingerprints

    def test_hermetic_judge_is_reproducible_in_place(self, corpus):
        """Re-judging the same record on the same world gives the same bits."""
        world = build_world(SEED, PARAMS)
        oracle = Study(STUDY_CONFIG, world=world).build_oracle()
        record = corpus.records()[0]
        first = verdict_fingerprint(hermetic_judge(oracle, world, record, SEED))
        # Perturb with other scans, then re-judge.
        for other in corpus.records()[1:4]:
            hermetic_judge(oracle, world, other, SEED)
        again = verdict_fingerprint(hermetic_judge(oracle, world, record, SEED))
        assert again == first


class TestCacheBehaviour:
    def test_warm_replay_performs_zero_scans(self, corpus):
        with ScanService(service_config()) as service:
            service.submit_corpus(corpus)
            service.drain()
            scanned_cold = service.metrics.counter("scanned").value
            assert scanned_cold == corpus.unique_ads

            tickets = service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert all(t.from_cache for t in tickets)
        assert stats["counters"]["scanned"] == scanned_cold  # zero new scans
        assert stats["counters"]["cache_hits"] == corpus.unique_ads
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_in_flight_duplicates_coalesce_to_one_scan(self, corpus):
        record = corpus.records()[0]
        # The fault hook parks the first scan until both duplicates are
        # submitted, guaranteeing they arrive while it is still in flight.
        submitted = threading.Event()
        config = service_config(
            n_workers=1, fault_hook=lambda index, task: submitted.wait(10))
        with ScanService(config) as service:
            tickets = [service.submit(record) for _ in range(3)]
            submitted.set()
            service.drain()
            stats = service.stats()
        fingerprints = {verdict_fingerprint(t.result()) for t in tickets}
        assert len(fingerprints) == 1
        assert stats["counters"]["scanned"] == 1
        assert stats["counters"]["coalesced"] == 2

    def test_cache_survives_restart_via_save_load(self, corpus, tmp_path):
        from repro.service import VerdictCache

        path = tmp_path / "verdicts-cache.jsonl"
        with ScanService(service_config()) as service:
            service.submit_corpus(corpus)
            service.drain()
            service.cache.save(path)

        warmed = VerdictCache.load(path)
        with ScanService(service_config(), cache=warmed) as service:
            tickets = service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert all(t.from_cache for t in tickets)
        assert stats["counters"]["scanned"] == 0


class GatedFsync(LocalFileSystem):
    """A file system whose fsync parks while the gate is closed."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.parked = threading.Event()

    def fsync(self, path) -> None:
        if not self.gate.is_set():
            self.parked.set()
            self.gate.wait(10)
        super().fsync(path)


class TestStoreAppend:
    def test_cache_hit_does_not_wait_for_a_blocked_fsync(self, corpus,
                                                         tmp_path):
        warm, fresh = corpus.records()[:2]
        fs = GatedFsync()
        store = VerdictStore(tmp_path / "store", fs=fs)
        with ScanService(service_config(n_workers=1), store=store) as service:
            service.scan_sync(warm, timeout=30)
            errors = service.stats()["counters"]["store_write_errors"]
            fs.gate.clear()
            scanned = service.submit(fresh)
            assert fs.parked.wait(30)
            # The worker is inside the fsync now; a cache hit must not
            # queue behind it.
            hits: list = []
            submitter = threading.Thread(
                target=lambda: hits.append(service.submit(warm)), daemon=True)
            submitter.start()
            submitter.join(1.0)
            assert hits and hits[0].done and hits[0].from_cache
            # Durable before delivered: the scan's ticket waits for the disk.
            assert not scanned.done
            fs.gate.set()
            assert scanned.result(timeout=30).ad_id == fresh.ad_id
            stats = service.stats()
        store.close()
        assert stats["counters"]["store_write_errors"] == errors
        assert stats["counters"]["scanned"] == 2


class TestLifecycle:
    def test_graceful_drain_under_in_flight_load(self, corpus):
        """shutdown(drain=True) resolves every accepted ticket."""
        with ScanService(service_config(n_workers=2)) as service:
            tickets = service.submit_corpus(corpus)
            service.shutdown(drain=True)
            assert all(t.done for t in tickets)
            for ticket in tickets:
                assert ticket.result(timeout=0).ad_id == ticket.ad_id

    def test_non_drain_shutdown_fails_leftover_tickets(self, corpus):
        config = service_config(n_workers=1, batch_max_size=1)
        service = ScanService(config).start()
        tickets = service.submit_corpus(corpus)
        service.shutdown(drain=False)
        # Every ticket terminates: resolved with a verdict or failed closed.
        resolved = failed = 0
        for ticket in tickets:
            assert ticket.done
            try:
                ticket.result(timeout=0)
                resolved += 1
            except QueueClosedError:
                failed += 1
        assert resolved + failed == len(tickets)

    def test_submit_requires_start(self, corpus):
        service = ScanService(service_config())
        with pytest.raises(RuntimeError):
            service.submit(corpus.records()[0])

    def test_submit_after_shutdown_raises(self, corpus):
        service = ScanService(service_config()).start()
        service.shutdown()
        with pytest.raises(QueueClosedError):
            service.submit(corpus.records()[0])

    def test_scan_sync(self, corpus):
        record = corpus.records()[0]
        with ScanService(service_config(n_workers=1)) as service:
            verdict = service.scan_sync(record)
        assert verdict.ad_id == record.ad_id

    def test_stats_shape(self, corpus):
        with ScanService(service_config()) as service:
            service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert {"counters", "gauges", "histograms", "cache", "queue",
                "batcher", "pool"} <= set(stats)
        assert stats["counters"]["submitted"] == corpus.unique_ads
        assert stats["histograms"]["scan_latency"]["count"] == corpus.unique_ads
        assert stats["histograms"]["batch_size"]["count"] >= 1


def _blocked_waiters(ticket, n):
    """Start ``n`` threads blocked in ``ticket.result()``; collect outcomes."""
    outcomes = []

    def wait():
        try:
            outcomes.append(ticket.result(timeout=10))
        except Exception as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=wait) for _ in range(n)]
    for thread in threads:
        thread.start()
    # A waiter installs the wakeup Event just before it blocks on it.
    while ticket._wakeup is None:
        time.sleep(0.001)
    time.sleep(0.05)
    return threads, outcomes


class TestTicket:
    def test_resolve_from_another_thread_wakes_a_blocked_waiter(self):
        ticket = ScanTicket("ad-1", "h1")
        verdict = object()
        threads, outcomes = _blocked_waiters(ticket, 1)
        assert not ticket.done and not outcomes
        threading.Thread(target=ticket._resolve, args=(verdict,)).start()
        threads[0].join(timeout=5)
        assert outcomes == [verdict] and ticket.done

    def test_fail_from_another_thread_wakes_a_blocked_waiter(self):
        ticket = ScanTicket("ad-1", "h1")
        error = QueueClosedError("service shut down")
        threads, outcomes = _blocked_waiters(ticket, 1)
        threading.Thread(target=ticket._fail, args=(error,)).start()
        threads[0].join(timeout=5)
        assert outcomes == [error]

    def test_every_concurrent_waiter_wakes(self):
        ticket = ScanTicket("ad-1", "h1")
        verdict = object()
        threads, outcomes = _blocked_waiters(ticket, 8)
        ticket._resolve(verdict)
        for thread in threads:
            thread.join(timeout=5)
        assert outcomes == [verdict] * 8

    def test_unresolved_result_times_out(self):
        ticket = ScanTicket("ad-9", "h9")
        with pytest.raises(TimeoutError,
                           match="verdict for ad-9 not ready after 0.05s"):
            ticket.result(0.05)
        assert not ticket.done

    def test_resolve_without_a_waiter_allocates_no_wait_primitive(self):
        ticket = ScanTicket("ad-1", "h1")
        verdict = object()
        ticket._resolve(verdict)
        assert ticket.done and ticket.result() is verdict
        assert ticket._wakeup is None
        assert not hasattr(ticket, "__dict__")


class TestPageRealm:
    """Judging builds a script realm only for frames that run a script."""

    @pytest.mark.parametrize("html, realms", [
        # Harness frame + sample frame + one click context: no script.
        ('<div class="ad"><a href="http://evil.example/offer">Win</a></div>',
         0),
        ('<div class="ad"><a href="http://evil.example/offer">Win</a></div>'
         "<script>var shown = 1;</script>", 1),
    ])
    def test_judge_builds_one_realm_per_scripted_frame(
            self, monkeypatch, html, realms):
        world = build_world(SEED, PARAMS)
        oracle = Study(STUDY_CONFIG, world=world).build_oracle()
        built = {Interpreter: [], _FrameContext: []}
        for cls, made in built.items():
            def counting_init(self, *args, _made=made,
                              _original=cls.__init__, **kwargs):
                _made.append(self)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        verdict = hermetic_judge(oracle, world, sighting_record(html), SEED)
        assert verdict.ad_id.startswith("sight:")
        assert len(built[_FrameContext]) == 3
        assert len(built[Interpreter]) == realms


#: Creatives that write read-only host members or throw from callbacks;
#: each must end as a recorded script error inside its own verdict.
HOSTILE_CREATIVES = [
    "<script>Math.foo0 = 1;</script>",
    "<script>String.x = 1;</script>",
    "<script>navigator.x = 1;</script>",
    "<script>JSON.stringify = 1;</script>",
    "<script>setTimeout(function(){ throw 'x'; }, 1);</script>",
    "<script>setTimeout('throw 2', 1);</script>",
    "<script>window.onload = function(){ throw 1; };</script>",
    "<script>window.onload = function(){ Math.random = 3; };</script>",
    "<script>var x = new XMLHttpRequest();"
    " x.onreadystatechange = function(){ throw 'xhr'; };"
    " x.open('GET', '/config.json'); x.send();</script>",
    "<script>var x = new XMLHttpRequest();"
    " x.onreadystatechange = function(){ screen.width = 1; };"
    " x.open('GET', '/config.json'); x.send();</script>",
]


class TestHostileCreatives:
    def test_script_faults_are_verdicts_not_outages(self):
        records = [sighting_record(html) for html in HOSTILE_CREATIVES]
        records.append(sighting_record("<p>a benign creative</p>"))
        with ScanService(service_config(n_workers=1)) as service:
            tickets = [service.submit(record) for record in records]
            service.drain()
            verdicts = [ticket.result(timeout=30) for ticket in tickets]
            stats = service.stats()
        assert [v.ad_id for v in verdicts] == [r.ad_id for r in records]
        assert stats["counters"].get("dead_lettered", 0) == 0
        assert not stats["pool"]["degraded"]
        assert {b["state"] for b in stats["pool"]["breakers"]} == {"closed"}


class TestStreaming:
    def test_streamed_crawl_classifies_every_unique_ad(self, corpus,
                                                       batch_fingerprints):
        study = Study(STUDY_CONFIG)
        crawler = study.build_crawler()
        schedule = CrawlSchedule([p.url for p in study.world.crawl_sites],
                                 STUDY_CONFIG.days,
                                 STUDY_CONFIG.refreshes_per_visit)
        with ScanService(service_config()) as service:
            streamed, _, tickets = stream_crawl(crawler, schedule, service)
            service.drain()
            verdicts = {ad_id: t.result() for ad_id, t in tickets.items()}
        # Streaming sees the exact same deduplicated corpus ...
        assert streamed.unique_ads == corpus.unique_ads
        assert sorted(r.content_hash for r in streamed.records()) == \
            sorted(r.content_hash for r in corpus.records())
        # ... and every unique ad got exactly one ticket with a verdict.
        assert set(verdicts) == {r.ad_id for r in streamed.records()}
        assert set(batch_fingerprints) == set(verdicts)

    def test_streamed_verdicts_are_deterministic(self):
        def run_once():
            study = Study(STUDY_CONFIG)
            crawler = study.build_crawler()
            schedule = CrawlSchedule([p.url for p in study.world.crawl_sites],
                                     STUDY_CONFIG.days,
                                     STUDY_CONFIG.refreshes_per_visit)
            with ScanService(service_config()) as service:
                _, _, tickets = stream_crawl(crawler, schedule, service)
                service.drain()
                return {ad_id: verdict_fingerprint(t.result())
                        for ad_id, t in tickets.items()}

        assert run_once() == run_once()
