"""Crash-recovery differentials for the store-backed scan pipeline.

The acceptance guarantee: a writer killed mid-append under disk chaos,
warm-started from its store and re-served, produces the bit-identical
corpus fingerprint and per-ad verdicts of an uninterrupted run — serial
and at 4 crawl workers, in both worker modes.  Verdicts that reached a
*sealed* segment are never lost to the crash; the open segment's torn
tail is truncated and counted, and the lost records are simply
rescanned (the hermetic oracle makes the rescan bit-identical).
"""

import pytest

from repro.chaos import ChaosFileSystem, FaultPlan
from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig, stream_crawl
from repro.store import OPEN_SUFFIX, SEALED_SUFFIX, StoreConfig, VerdictStore

SEED = 7

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2,
                     n_benign_campaigns=10, n_malicious_campaigns=4,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=2, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])

#: Re-serve shapes the acceptance criteria name: serial, and 4 crawl
#: workers in each available mode.
RESERVE_SHAPES = [(1, "thread")] + [(4, mode) for mode in MODES]

STORE_CONFIG = StoreConfig(n_shards=2, segment_max_records=4, fsync_every=1)

#: The disk lies about an fsync mid-run: the append "succeeded" but only
#: half of it reached stable storage, and the writer is killed at that
#: exact moment (detected via :meth:`ChaosFileSystem.at_risk`).  The
#: power cut then cuts the segment mid-record — the canonical torn tail.
DOOMED_PLAN = dict(seed=10, rate=0.25, kinds=("partial_fsync",))


def make_study() -> Study:
    return Study(StudyConfig(**dict(STUDY_CONFIG.__dict__)))


def make_service_config(**overrides) -> ServiceConfig:
    return ServiceConfig(**{
        "seed": SEED, "n_workers": 2, "world_params": PARAMS,
        "batch_max_size": 4, **overrides})


def resolve_fingerprints(tickets) -> dict:
    return {ad_id: verdict_fingerprint(ticket.result(timeout=60))
            for ad_id, ticket in tickets.items()}


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted (storeless, serial) run every recovery must match."""
    study = make_study()
    with ScanService(make_service_config()) as service:
        corpus, _, tickets = stream_crawl(
            study.build_crawler(), study.build_schedule(), service)
        service.drain()
        resolved = {ad_id: ticket.result(timeout=60)
                    for ad_id, ticket in tickets.items()}
    return {
        "fingerprint": corpus_fingerprint(corpus),
        "verdicts": {ad_id: verdict_fingerprint(v)
                     for ad_id, v in resolved.items()},
        "unique_ads": corpus.unique_ads,
        # The store writer's work list: (content_hash, verdict) in the
        # deterministic corpus order the crawl minted them.
        "items": [(record.content_hash, resolved[record.ad_id])
                  for record in corpus.records()],
    }


@pytest.fixture(scope="module")
def crashed_store_root(tmp_path_factory, baseline):
    """One doomed writer, killed mid-append under disk chaos.

    The writer persists the crawl's verdicts one by one; the chaos plan
    makes one fsync lie (only half the appended record reaches stable
    storage) and the writer is killed at that exact moment — then the
    power cut truncates every file to its durable length, leaving the
    active segment torn mid-record.  Returns ``(root, sealed_keys,
    stored_keys)`` where ``sealed_keys`` are the content hashes living
    in *sealed* segments at death — the ones recovery must never lose.
    """
    root = tmp_path_factory.mktemp("store") / "vs"
    fs = ChaosFileSystem(FaultPlan(**DOOMED_PLAN))
    store = VerdictStore(root, StoreConfig(**vars(STORE_CONFIG)), fs=fs)
    exposed: dict = {}
    written = 0
    for key, verdict in baseline["items"]:
        store.put(key, verdict)
        written += 1
        # kill -9 the instant an fsync lies: segment bytes sit in page
        # cache that the disk never got.
        exposed = {path: n for path, n in fs.at_risk().items()
                   if path.endswith((OPEN_SUFFIX, SEALED_SUFFIX))}
        if exposed:
            break
    assert exposed, "the chaos plan should have made an fsync lie"
    assert written < len(baseline["items"]), "the writer must die mid-run"
    # The lie must have hit an active segment's tail; sealed segments
    # were all persisted with honest fsyncs and survive the cut intact.
    assert all(path.endswith(OPEN_SUFFIX) for path in exposed)
    sealed_keys = {
        key for key, entry in store._index.items()
        if entry.segment.path.endswith(SEALED_SUFFIX)}
    stored_keys = set(store._index)
    assert sealed_keys, "the run should have sealed at least one segment"
    # No close(): the power goes out instead, and un-fsynced bytes die.
    lost = fs.simulate_crash()
    assert any(path.endswith(OPEN_SUFFIX) for path in lost)
    return root, sealed_keys, stored_keys


class TestCrashRecoveryDifferential:
    def test_recovery_truncates_and_counts_the_damage(self, crashed_store_root):
        root, sealed_keys, stored_keys = crashed_store_root
        store = VerdictStore(root)
        try:
            report = store.recovery
            # The power cut left the active segment torn mid-record;
            # recovery truncates the tail and counts the damage.
            assert report.truncated_tails >= 1
            assert report.bytes_discarded > 0
            # Zero verdicts lost for sealed segments.
            assert sealed_keys <= set(store.keys())
            # Nothing recovered from thin air either.
            assert set(store.keys()) <= stored_keys
            assert store.fsck().clean
        finally:
            store.close()

    @pytest.mark.parametrize(("crawl_workers", "mode"), RESERVE_SHAPES)
    def test_warm_restart_reserves_bit_identically(self, crashed_store_root,
                                                   baseline, crawl_workers,
                                                   mode):
        root, sealed_keys, _ = crashed_store_root
        store = VerdictStore(root)
        survivors = len(store)
        study = make_study()
        if crawl_workers > 1:
            crawler = study.build_parallel_crawler(workers=crawl_workers,
                                                   mode=mode)
        else:
            crawler = study.build_crawler()
        with ScanService(make_service_config(), store=store) as service:
            corpus, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = resolve_fingerprints(tickets)
            counters = service.stats()["counters"]
        store.close()
        # The differential: corpus and every verdict bit-identical to
        # the uninterrupted run, whatever the crash threw away.
        assert corpus_fingerprint(corpus) == baseline["fingerprint"]
        assert verdicts == baseline["verdicts"]
        # Survivors were served from the store, only the casualties were
        # rescanned — and sealed records never rescan.
        assert counters["store_hits"] == survivors
        assert counters["scanned"] == baseline["unique_ads"] - survivors
        assert counters["scanned"] <= baseline["unique_ads"] - len(sealed_keys)

    def test_recovered_store_reaches_full_strength_after_reserve(
            self, crashed_store_root, baseline):
        root, _, _ = crashed_store_root
        store = VerdictStore(root)
        study = make_study()
        with ScanService(make_service_config(), store=store) as service:
            stream_crawl(study.build_crawler(), study.build_schedule(),
                         service)
            service.drain()
        store.close()
        # After the re-serve every unique creative is durable again: a
        # third run performs zero oracle scans.
        final = VerdictStore(root)
        assert len(final) == baseline["unique_ads"]
        with ScanService(make_service_config(), store=final) as service:
            _, _, tickets = stream_crawl(
                study.build_crawler(), study.build_schedule(), service)
            service.drain()
            verdicts = resolve_fingerprints(tickets)
            counters = service.stats()["counters"]
        final.close()
        assert counters["scanned"] == 0
        assert verdicts == baseline["verdicts"]


class TestCleanRestart:
    def test_clean_shutdown_then_warm_start_skips_every_scan(self, tmp_path,
                                                             baseline):
        config = make_service_config(store_path=tmp_path / "vs")
        study = make_study()
        with ScanService(config) as service:
            stream_crawl(study.build_crawler(), study.build_schedule(),
                         service)
            service.drain()
            cold_scans = service.metrics.counter("scanned").value
        assert cold_scans == baseline["unique_ads"]
        # The service owned the store, so shutdown sealed every segment.
        with ScanService(make_service_config(store_path=tmp_path / "vs")) \
                as service:
            assert service.store.recovery.truncated_tails == 0
            _, _, tickets = stream_crawl(
                study.build_crawler(), study.build_schedule(), service)
            service.drain()
            verdicts = resolve_fingerprints(tickets)
            stats = service.stats()
        assert stats["counters"]["scanned"] == 0
        assert stats["counters"]["store_hits"] == baseline["unique_ads"]
        assert verdicts == baseline["verdicts"]
        assert stats["store"]["segments"]["open"] == 0

    def test_gateway_stats_surface_the_store(self, tmp_path):
        from repro.gateway import ScanGateway

        config = make_service_config(store_path=tmp_path / "vs")
        with ScanService(config) as service:
            gateway = ScanGateway(service)
            stats = gateway.stats()
            assert "store" in stats
            assert stats["store"]["n_shards"] == \
                service.store.stats()["n_shards"]
        # A storeless service advertises none.
        with ScanService(make_service_config()) as service:
            assert "store" not in ScanGateway(service).stats()
