"""Service throughput: ads/sec and cache hit rate at 1/2/4 workers.

Replays the shared bench-scale corpus through :class:`ScanService` cold
at each pool size, then warm.  Two claims are asserted:

* adding workers does not *lose* throughput (oracle scans are pure
  Python, so the GIL caps the upside of threads — the pool must still
  never be slower than serial beyond a small coordination overhead);
* a cache-warm replay beats any cold replay outright and performs zero
  oracle scans.
"""

from __future__ import annotations

import time

import pytest

from repro.service import ScanService, ServiceConfig

from conftest import BENCH_PARAMS, BENCH_SEED

# Thread coordination overhead allowed before "not slower" counts as failed.
MULTI_WORKER_TOLERANCE = 1.5

WARM_SPEEDUP_FLOOR = 5.0


def service_config(n_workers: int) -> ServiceConfig:
    return ServiceConfig(seed=BENCH_SEED, n_workers=n_workers,
                         world_params=BENCH_PARAMS,
                         batch_max_size=16)


@pytest.fixture(scope="module")
def corpus(bench_results):
    return bench_results.corpus


def replay(service: ScanService, corpus) -> float:
    started = time.perf_counter()
    service.submit_corpus(corpus)
    service.drain()
    return time.perf_counter() - started


class TestServiceThroughput:
    def test_throughput_by_worker_count_and_cache_warmth(self, corpus):
        cold_times: dict[int, float] = {}
        rows = []
        warm_time = None
        for n_workers in (1, 2, 4):
            with ScanService(service_config(n_workers)) as service:
                cold = replay(service, corpus)
                cold_times[n_workers] = cold
                stats_cold = service.stats()
                assert stats_cold["counters"]["scanned"] == corpus.unique_ads

                if n_workers == 4:
                    warm_time = replay(service, corpus)
                    stats = service.stats()
                    # The warm pass re-submitted everything, scanned nothing.
                    assert stats["counters"]["scanned"] == corpus.unique_ads
                    assert stats["counters"]["cache_hits"] == corpus.unique_ads
                rows.append((n_workers, cold, corpus.unique_ads / cold))

        print(f"\nservice throughput ({corpus.unique_ads} unique ads, "
              f"{corpus.total_impressions} impressions)")
        for n_workers, elapsed, rate in rows:
            print(f"  {n_workers} worker(s): {elapsed:6.2f}s cold "
                  f"({rate:7.0f} ads/s)")
        assert warm_time is not None
        print(f"  4 worker(s): {warm_time:6.2f}s warm "
              f"({corpus.unique_ads / warm_time:7.0f} ads/s, zero scans)")

        # Multi-worker must not be slower than single-worker (+ tolerance).
        for n_workers in (2, 4):
            assert cold_times[n_workers] <= \
                cold_times[1] * MULTI_WORKER_TOLERANCE, (
                    f"{n_workers} workers took {cold_times[n_workers]:.2f}s "
                    f"vs {cold_times[1]:.2f}s serial")
        # Cache-warm replay beats every cold replay by a wide margin.
        assert warm_time * WARM_SPEEDUP_FLOOR < min(cold_times.values())

    def test_cache_hit_rate_reported(self, corpus):
        with ScanService(service_config(2)) as service:
            replay(service, corpus)
            replay(service, corpus)
            stats = service.stats()
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        assert stats["histograms"]["batch_size"]["mean"] >= 1.0
