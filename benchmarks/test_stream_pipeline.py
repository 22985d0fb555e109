"""Overlapped streaming pipeline: crawl+scan wall-clock vs sequential phases.

One benchmark, emitting a machine-readable JSON report on stdout:

* **sequential** — parallel crawl to completion, then submit the corpus
  and drain the service (the batch shape: scan time strictly added on
  top of crawl time);
* **overlapped** — the same parallel crawl streamed through the service,
  shard workers submitting first-sight creatives mid-crawl with
  cross-shard dedup, drained after the merge.

The differential assertions run unconditionally on any hardware: both
pipelines must produce the identical corpus fingerprint and identical
per-ad verdicts as a serial streamed crawl, with exactly one oracle scan
per unique creative in the overlapped run.  The wall-clock floor
(overlapped < sequential) only applies where the hardware can hide the
scans inside the crawl — process-mode workers with enough cores; a
single-core box interleaves everything on one CPU and can only assert
correctness.

Set ``BENCH_SMOKE=1`` (the CI smoke job does) to shrink the workload to
seconds and keep only the correctness assertions.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.persistence import corpus_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig, stream_crawl

from conftest import BENCH_SEED

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

AVAILABLE_CORES = len(os.sched_getaffinity(0))

# Campaign pools are kept small relative to the impression volume so the
# same creatives recur across visits — and therefore across shards,
# which the cross-shard dedup assertions need to exercise.
if SMOKE:
    PARAMS = WorldParams(n_top_sites=8, n_bottom_sites=8,
                         n_other_sites=8, n_feed_sites=2,
                         n_benign_campaigns=10, n_malicious_campaigns=4,
                         variants_per_benign=2, variants_per_malicious=1)
    CONFIG = StudyConfig(seed=BENCH_SEED, days=1, refreshes_per_visit=2,
                         world_params=PARAMS)
    N_WORKERS = 2
else:
    PARAMS = WorldParams(n_top_sites=30, n_bottom_sites=30,
                         n_other_sites=30, n_feed_sites=8,
                         n_benign_campaigns=40, n_malicious_campaigns=8,
                         variants_per_benign=4, variants_per_malicious=2)
    CONFIG = StudyConfig(seed=BENCH_SEED, days=3, refreshes_per_visit=3,
                         world_params=PARAMS)
    N_WORKERS = 4

SERVICE_WORKERS = 2


def emit(name: str, payload: dict) -> None:
    print(f"\n{name} {json.dumps(payload, sort_keys=True)}")


def make_service() -> ScanService:
    return ScanService(ServiceConfig(
        seed=BENCH_SEED, n_workers=SERVICE_WORKERS, world_params=PARAMS,
        batch_max_size=8))


class TestStreamPipeline:
    def test_overlapped_beats_sequential_with_identical_verdicts(self):
        mode = "process" if fork_available() else "thread"

        # Ground truth: the serial streamed crawl.
        study = Study(CONFIG)
        with make_service() as service:
            corpus, _, tickets = stream_crawl(
                study.build_crawler(), study.build_schedule(), service)
            service.drain()
            serial_fp = corpus_fingerprint(corpus)
            serial_verdicts = {ad_id: t.result() for ad_id, t in tickets.items()}
        unique_ads = corpus.unique_ads

        # Sequential phases: crawl everything, then scan everything.
        study = Study(CONFIG)
        crawler = study.build_parallel_crawler(workers=N_WORKERS, mode=mode)
        with make_service() as service:
            started = time.perf_counter()
            seq_corpus, seq_stats = crawler.crawl(study.build_schedule())
            crawl_time = time.perf_counter() - started
            seq_tickets = service.submit_corpus(seq_corpus)
            service.drain()
            sequential_time = time.perf_counter() - started
            seq_verdicts = {t.ad_id: t.result() for t in seq_tickets}
        assert corpus_fingerprint(seq_corpus) == serial_fp
        # Batch submissions carry the merged impression context, so only
        # the label set is comparable — not the verdict bits.
        assert set(seq_verdicts) == set(serial_verdicts)

        # Overlapped: the same crawl streamed through the service.
        study = Study(CONFIG)
        crawler = study.build_parallel_crawler(workers=N_WORKERS, mode=mode)
        with make_service() as service:
            started = time.perf_counter()
            ov_corpus, ov_stats, ov_tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            overlapped_time = time.perf_counter() - started
            ov_verdicts = {ad_id: t.result()
                           for ad_id, t in ov_tickets.items()}
            snapshot = service.stats()
        counters = snapshot["counters"]

        # The determinism guarantees hold on any hardware.
        assert corpus_fingerprint(ov_corpus) == serial_fp
        assert ov_stats == seq_stats
        assert ov_verdicts == serial_verdicts
        assert counters["scanned"] == unique_ads
        assert counters["first_sight_submissions"] == unique_ads
        assert counters["shard_dedup_hits"] >= 1
        assert counters["overlapped_scans"] >= 1

        pages = seq_stats.pages_visited
        speedup = (sequential_time / overlapped_time
                   if overlapped_time > 0 else float("inf"))
        emit("STREAM_PIPELINE_JSON", {
            "workload": {"pages": pages, "unique_ads": unique_ads,
                         "crawl_workers": N_WORKERS,
                         "service_workers": SERVICE_WORKERS,
                         "mode": mode, "cores": AVAILABLE_CORES,
                         "smoke": SMOKE},
            "sequential": {"seconds": round(sequential_time, 3),
                           "crawl_seconds": round(crawl_time, 3),
                           "scan_seconds": round(sequential_time - crawl_time, 3)},
            "overlapped": {"seconds": round(overlapped_time, 3),
                           "speedup": round(speedup, 2),
                           "scans_mid_crawl": counters["overlapped_scans"],
                           "shard_dedup_hits": counters["shard_dedup_hits"],
                           "queue_high_water": snapshot["queue"]["high_water"],
                           "first_sight_latency_p50_ms": round(
                               snapshot["histograms"]["first_sight_latency"]
                               .get("p50", 0.0) * 1000, 2)},
            "floor": {"enforced": (not SMOKE and mode == "process"
                                   and AVAILABLE_CORES >= 4),
                      "measured_speedup": round(speedup, 2)},
        })

        if SMOKE:
            return
        if mode == "process" and AVAILABLE_CORES >= 4:
            # With cores to spare, hiding the scans inside the crawl must
            # beat paying for them afterwards.
            assert overlapped_time < sequential_time, (
                f"overlapped pipeline took {overlapped_time:.2f}s vs "
                f"{sequential_time:.2f}s sequential on "
                f"{AVAILABLE_CORES} cores")
