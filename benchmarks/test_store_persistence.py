"""Verdict-store persistence: warm-start scan skips and bloom-front I/O.

Two benchmarks, emitting ``STORE_PERSISTENCE_JSON`` and
``STORE_FAST_OPEN_JSON`` on stdout, measuring the store claims that
matter operationally:

* **warm start** — a store-backed service that crawled once, shut down
  cleanly and restarted must serve (almost) every repeat creative from
  disk: the warm run's oracle-scan count must be at most 5% of the cold
  run's (in practice it is exactly zero — the corpus is deterministic).
* **bloom front** — probing creatives the store has *never* seen must
  answer from the in-memory bloom filter alone: zero segment reads, as
  counted by the store's own I/O counters, at a probe rate far beyond
  what segment I/O could sustain.
* **fast open** — a cleanly shut-down store with persisted bloom/index
  sidecars must reopen without replaying a single segment, at least
  ``FAST_OPEN_SPEEDUP_FLOOR`` times faster than a full replay of the
  same directory, with a bit-identical fingerprint either way.

Set ``BENCH_SMOKE=1`` (the CI store-smoke job does) to shrink the
workload to seconds; every correctness assertion still runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.core.oracle import AdVerdict
from repro.core.study import Study, StudyConfig
from repro.datasets.world import WorldParams
from repro.oracles.features import BehaviourFeatures
from repro.oracles.wepawet import WepawetReport
from repro.service import ScanService, ServiceConfig, stream_crawl
from repro.store import StoreConfig, VerdictStore

from conftest import BENCH_SEED

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

if SMOKE:
    PARAMS = WorldParams(n_top_sites=8, n_bottom_sites=8,
                         n_other_sites=8, n_feed_sites=2,
                         n_benign_campaigns=10, n_malicious_campaigns=4,
                         variants_per_benign=2, variants_per_malicious=1)
    CONFIG = StudyConfig(seed=BENCH_SEED, days=1, refreshes_per_visit=2,
                         world_params=PARAMS)
    N_NEVER_SEEN = 2_000
else:
    PARAMS = WorldParams(n_top_sites=30, n_bottom_sites=30,
                         n_other_sites=30, n_feed_sites=8,
                         n_benign_campaigns=40, n_malicious_campaigns=8,
                         variants_per_benign=4, variants_per_malicious=2)
    CONFIG = StudyConfig(seed=BENCH_SEED, days=3, refreshes_per_visit=3,
                         world_params=PARAMS)
    N_NEVER_SEEN = 50_000

STORE_CONFIG = StoreConfig(n_shards=4, segment_max_records=64)

#: Warm-start acceptance: the restarted service must skip at least this
#: fraction of the cold run's oracle scans.
SKIP_FLOOR = 0.95

#: Fast-open acceptance: sidecar open must beat full segment replay by
#: at least this factor on a clean many-segment store.
FAST_OPEN_SPEEDUP_FLOOR = 5.0

#: Fast-open workload: enough records to seal well over 50 segments.
FAST_OPEN_RECORDS = 500 if SMOKE else 4_000
FAST_OPEN_CONFIG = StoreConfig(n_shards=4, segment_max_records=16)
FAST_OPEN_REPEATS = 3


def emit(name: str, payload: dict) -> None:
    print(f"\n{name} {json.dumps(payload, sort_keys=True)}")


def make_service(store_root) -> ScanService:
    return ScanService(ServiceConfig(
        seed=BENCH_SEED, n_workers=2, world_params=PARAMS,
        batch_max_size=8,
        store_path=store_root, store_config=StoreConfig(**vars(STORE_CONFIG))))


def run_crawl(service: ScanService):
    study = Study(StudyConfig(**dict(CONFIG.__dict__)))
    corpus, _, tickets = stream_crawl(
        study.build_crawler(), study.build_schedule(), service)
    service.drain()
    for ticket in tickets.values():
        ticket.result(timeout=120)
    return corpus


class TestStorePersistence:
    def test_warm_start_skips_scans_and_bloom_skips_io(self, tmp_path):
        root = tmp_path / "verdicts"

        # Cold: every unique creative costs one oracle scan.
        started = time.perf_counter()
        with make_service(root) as service:
            corpus = run_crawl(service)
            cold_scans = service.stats()["counters"]["scanned"]
        cold_seconds = time.perf_counter() - started
        unique_ads = corpus.unique_ads
        assert cold_scans == unique_ads

        # Warm: restart from the store, replay the identical crawl.
        started = time.perf_counter()
        with make_service(root) as service:
            recovery = service.store.recovery.to_dict()
            run_crawl(service)
            counters = service.stats()["counters"]
            warm_scans = counters["scanned"]
            store_hits = counters["store_hits"]
        warm_seconds = time.perf_counter() - started
        skip_ratio = 1.0 - warm_scans / cold_scans
        assert skip_ratio >= SKIP_FLOOR, (
            f"warm start still scanned {warm_scans}/{cold_scans} "
            f"creatives ({skip_ratio:.1%} skipped, need >={SKIP_FLOOR:.0%})")
        assert store_hits == unique_ads
        assert recovery["truncated_tails"] == 0  # clean shutdown

        # Bloom front: never-seen probes must not touch a segment.
        store = VerdictStore(root)
        try:
            before = store.stats()
            started = time.perf_counter()
            for i in range(N_NEVER_SEEN):
                digest = hashlib.sha256(b"never-seen-%d" % i).hexdigest()
                assert store.get(digest) is None
            probe_seconds = time.perf_counter() - started
            after = store.stats()
            segment_reads = after["segment_reads"] - before["segment_reads"]
            bloom_negatives = (after["bloom"]["negatives"]
                               - before["bloom"]["negatives"])
            false_positives = (after["bloom"]["false_positives"]
                               - before["bloom"]["false_positives"])
            # Every probe either died in the bloom filter (no I/O at
            # all) or was a bloom false positive answered by the
            # in-memory index — still zero segment reads.
            assert segment_reads == 0
            assert bloom_negatives + false_positives == N_NEVER_SEEN
            assert bloom_negatives >= N_NEVER_SEEN * 0.9
            store_stats = after
        finally:
            store.close()

        emit("STORE_PERSISTENCE_JSON", {
            "workload": {"unique_ads": unique_ads,
                         "n_shards": STORE_CONFIG.n_shards,
                         "segment_max_records":
                             STORE_CONFIG.segment_max_records,
                         "never_seen_probes": N_NEVER_SEEN,
                         "smoke": SMOKE},
            "cold": {"seconds": round(cold_seconds, 3),
                     "oracle_scans": cold_scans},
            "warm": {"seconds": round(warm_seconds, 3),
                     "oracle_scans": warm_scans,
                     "store_hits": store_hits,
                     "skip_ratio": round(skip_ratio, 4)},
            "recovery": recovery,
            "bloom_front": {
                "probe_seconds": round(probe_seconds, 3),
                "probes_per_second": round(
                    N_NEVER_SEEN / probe_seconds) if probe_seconds else None,
                "segment_reads": segment_reads,
                "negatives": bloom_negatives,
                "false_positives": false_positives,
                "estimated_fp_rate": round(
                    store_stats["bloom"]["estimated_fp_rate"], 6)},
            "store": {"records": store_stats["records"],
                      "segments": store_stats["segments"]},
        })


def _fast_open_verdict(i: int) -> AdVerdict:
    features = BehaviourFeatures(**{
        name: i + j for j, name in enumerate(BehaviourFeatures.names())})
    report = WepawetReport(
        sample_id=f"bench-{i:06d}",
        features=features,
        suspicious_redirection=bool(i % 2),
        redirection_reasons=(f"reason-{i}",),
        driveby_heuristic=bool(i % 3 == 0),
        heuristic_reasons=(),
        model_detection=False,
        model_score=(i % 100) / 100.0,
    )
    return AdVerdict(ad_id=f"bench-{i:06d}", wepawet=report)


def _fast_open_key(i: int) -> str:
    return hashlib.sha256(b"fast-open-%d" % i).hexdigest()


def _timed_open(root, fast_open: bool):
    """Best-of-``FAST_OPEN_REPEATS`` clean open, returning stats too."""
    best = None
    fingerprint = recovery = segments = None
    config = StoreConfig(
        n_shards=FAST_OPEN_CONFIG.n_shards,
        segment_max_records=FAST_OPEN_CONFIG.segment_max_records,
        fast_open=fast_open)
    for _ in range(FAST_OPEN_REPEATS):
        started = time.perf_counter()
        store = VerdictStore(root, config)
        elapsed = time.perf_counter() - started
        try:
            if best is None or elapsed < best:
                best = elapsed
            fingerprint = store.fingerprint()
            recovery = store.recovery.to_dict()
            segments = store.stats()["segments"]
        finally:
            store.close()
    return best, fingerprint, recovery, segments


class TestStoreFastOpen:
    def test_sidecar_open_beats_full_replay(self, tmp_path):
        root = tmp_path / "fast-open"

        # Build a clean many-segment store, sidecars written at seal.
        store = VerdictStore(root, StoreConfig(**vars(FAST_OPEN_CONFIG)))
        try:
            for i in range(FAST_OPEN_RECORDS):
                store.put(_fast_open_key(i), _fast_open_verdict(i))
            sidecar_writes = store.stats()["sidecar_writes"]
        finally:
            store.close()

        fast_seconds, fast_fp, fast_recovery, segments = _timed_open(
            root, fast_open=True)
        replay_seconds, replay_fp, replay_recovery, _ = _timed_open(
            root, fast_open=False)

        # Fast open must really have skipped the replay, and both open
        # paths must materialise the identical store.
        assert fast_recovery["fast_open"] == 1
        assert fast_recovery["segments_scanned"] == 0
        assert fast_recovery["sidecars_used"] > 0
        assert replay_recovery["fast_open"] == 0
        assert replay_recovery["segments_scanned"] > 0
        assert fast_fp == replay_fp

        sealed = fast_recovery["sidecars_used"]
        if not SMOKE:
            assert sealed >= 50, (
                f"workload only sealed {sealed} segments; the fast-open "
                f"floor is meaningless below 50")
            speedup = replay_seconds / fast_seconds
            assert speedup >= FAST_OPEN_SPEEDUP_FLOOR, (
                f"fast open only {speedup:.2f}x full replay "
                f"(floor {FAST_OPEN_SPEEDUP_FLOOR:.0f}x)")

        emit("STORE_FAST_OPEN_JSON", {
            "workload": {"records": FAST_OPEN_RECORDS,
                         "n_shards": FAST_OPEN_CONFIG.n_shards,
                         "segment_max_records":
                             FAST_OPEN_CONFIG.segment_max_records,
                         "sealed_segments": sealed,
                         "segments": segments,
                         "sidecar_writes": sidecar_writes,
                         "smoke": SMOKE},
            "fast_open": {"seconds": round(fast_seconds, 4),
                          "recovery": fast_recovery},
            "full_replay": {"seconds": round(replay_seconds, 4),
                            "recovery": replay_recovery},
            "speedup": round(replay_seconds / fast_seconds, 2),
            "floor": {"fast_open_speedup": FAST_OPEN_SPEEDUP_FLOOR,
                      "enforced": not SMOKE},
            "fingerprints_identical": fast_fp == replay_fp,
        })
