"""Load-generator SLO benchmark: burst traffic against an elastic pool.

One deterministic burst profile is replayed open-loop against the scan
service twice — a fixed single-worker pool and an autoscaled 1..4 pool —
and a machine-readable ``LOADGEN_SLO_JSON`` report lands on stdout with
offered vs served throughput, scan-latency percentiles, pool-size
excursion, and the ingest queue high-water mark.

What is asserted where:

* **everywhere** (including ``BENCH_SMOKE=1``): the autoscaled run's
  verdict fingerprints are bit-identical to the fixed pool's — scaling
  decisions are invisible in the output — and the same seeded profile
  regenerates the same arrival sequence and offers the same request
  counts.
* **≥4 cores, full mode**: the SLO floors apply — the autoscaled pool
  keeps burst p99 scan latency under :data:`P99_FLOOR_SECONDS`, actually
  grows past one worker during the burst, and drains back down to
  ``min_workers`` across the idle tail.
* **single-core, full mode**: determinism plus bounded overhead only —
  the autoscaled run may not take materially longer than the fixed run
  (there are no spare cores for the floors to be meaningful).
"""

from __future__ import annotations

import json
import os
import time

from repro.core.persistence import verdict_fingerprint
from repro.datasets.world import WorldParams
from repro.loadgen import LoadDriver, build_population, burst_profile, \
    generate_schedule
from repro.service import AutoscalerConfig, ScanService, ServiceConfig

from conftest import BENCH_SEED

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

AVAILABLE_CORES = len(os.sched_getaffinity(0))

# Burst p99 scan latency the autoscaled pool must hold when the cores
# exist to absorb the burst (submission -> verdict, wall seconds).
P99_FLOOR_SECONDS = 0.75

# Single-core bound: autoscaling machinery may not cost more than this
# over the fixed pool on the same paced workload.
OVERHEAD_TOLERANCE = 1.5

if SMOKE:
    PARAMS = WorldParams(n_top_sites=4, n_bottom_sites=4, n_other_sites=4,
                         n_feed_sites=2,
                         n_benign_campaigns=10, n_malicious_campaigns=4,
                         variants_per_benign=2, variants_per_malicious=1)
    PROFILE = burst_profile()
    TIME_SCALE = 20.0
else:
    PARAMS = WorldParams(n_top_sites=10, n_bottom_sites=10, n_other_sites=10,
                         n_feed_sites=4,
                         n_benign_campaigns=30, n_malicious_campaigns=8,
                         variants_per_benign=2, variants_per_malicious=2)
    PROFILE = burst_profile(base_rate=40.0, burst_rate=400.0,
                            warm=2.0, burst=3.0, cooldown=2.0, idle=3.0)
    TIME_SCALE = 4.0

SCALER = AutoscalerConfig(min_workers=1, max_workers=4, interval=0.01,
                          scale_up_depth_per_worker=2.0,
                          up_cooldown=0.02, down_cooldown=0.1, idle_evals=3)


def emit(name: str, payload: dict) -> None:
    print(f"\n{name} {json.dumps(payload, sort_keys=True)}")


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=BENCH_SEED, n_workers=1, world_params=PARAMS,
                    batch_max_size=4,
                    queue_capacity=4096)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_profile(population, schedule, **overrides) -> dict:
    """One open-loop replay; returns fingerprints + the numbers we report."""
    tickets: list = []
    config = service_config(**overrides)
    started = time.perf_counter()
    with ScanService(config) as service:
        driver = LoadDriver(schedule, population, time_scale=TIME_SCALE)
        report = driver.run(service, tickets_out=tickets)
        service.drain()
        fingerprints = {t.ad_id: verdict_fingerprint(t.result(timeout=120))
                        for t in tickets}
        # Let the autoscaler walk back to min across the idle tail.
        scaled_down = None
        if service.autoscaler is not None:
            deadline = time.monotonic() + 10.0
            while service.pool.size > config.autoscaler_config().min_workers \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            scaled_down = service.pool.size
        stats = service.stats()
    elapsed = time.perf_counter() - started
    scan = stats["histograms"]["scan_latency"]
    out = {
        "fingerprints": fingerprints,
        "report": report,
        "elapsed": elapsed,
        "offered_per_sec": round(report.offered / report.wall_seconds, 1),
        "served_per_sec": round(len(fingerprints) / elapsed, 1),
        "scan_latency": {"p50": scan["p50"], "p99": scan["p99"],
                         "count": scan["count"]},
        "queue_high_water": stats["queue"]["high_water"],
        "pool": {"peak": stats["pool"]["peak_size"],
                 "min": stats["pool"]["min_size"],
                 "final": scaled_down},
        "autoscaler": (stats.get("autoscaler", {}) or {}),
    }
    return out


class TestLoadgenSLO:
    def test_burst_slo_and_autoscale_determinism(self):
        population = build_population(BENCH_SEED, PARAMS)
        schedule = generate_schedule(PROFILE, BENCH_SEED,
                                     n_ranks=len(population))

        fixed = run_profile(population, schedule)
        scaled = run_profile(population, schedule, autoscaler=SCALER)

        # Scaling decisions must be invisible in the verdicts —
        # asserted on any hardware, smoke or full.
        assert scaled["fingerprints"] == fixed["fingerprints"]
        assert scaled["report"].offered == len(schedule)
        assert scaled["report"].submitted == scaled["report"].offered

        floors_enforced = not SMOKE and AVAILABLE_CORES >= 4
        report = {
            "workload": {
                "profile": PROFILE.name,
                "arrivals": len(schedule),
                "creatives": len(population),
                "model_seconds": PROFILE.duration,
                "time_scale": TIME_SCALE,
                "cores": AVAILABLE_CORES,
                "smoke": SMOKE,
            },
            "offered_per_sec": scaled["offered_per_sec"],
            "served_per_sec": scaled["served_per_sec"],
            "scan_latency": scaled["scan_latency"],
            "queue_high_water": scaled["queue_high_water"],
            "pool": scaled["pool"],
            "scale_ups": scaled["autoscaler"].get("scale_ups"),
            "scale_downs": scaled["autoscaler"].get("scale_downs"),
            "fixed_baseline": {
                "elapsed": round(fixed["elapsed"], 3),
                "served_per_sec": fixed["served_per_sec"],
                "scan_latency_p99": fixed["scan_latency"]["p99"],
                "queue_high_water": fixed["queue_high_water"],
            },
            "floor": {
                "p99_seconds": P99_FLOOR_SECONDS,
                "overhead_tolerance": OVERHEAD_TOLERANCE,
                "enforced": floors_enforced,
            },
        }
        emit("LOADGEN_SLO_JSON", report)

        if SMOKE:
            return
        if floors_enforced:
            assert scaled["scan_latency"]["p99"] is not None
            assert scaled["scan_latency"]["p99"] <= P99_FLOOR_SECONDS, (
                f"burst p99 {scaled['scan_latency']['p99']:.3f}s over the "
                f"{P99_FLOOR_SECONDS}s floor with {AVAILABLE_CORES} cores")
            assert scaled["pool"]["peak"] >= 2, \
                "burst never scaled the pool past one worker"
            assert scaled["pool"]["final"] == SCALER.min_workers, (
                f"pool sat at {scaled['pool']['final']} workers across "
                f"the idle tail instead of draining to "
                f"{SCALER.min_workers}")
        else:
            # Single-core: determinism (asserted above) + bounded overhead.
            assert scaled["elapsed"] <= fixed["elapsed"] * OVERHEAD_TOLERANCE, (
                f"autoscaled run took {scaled['elapsed']:.2f}s vs "
                f"{fixed['elapsed']:.2f}s fixed "
                f"(tolerance {OVERHEAD_TOLERANCE}x)")

    def test_replay_offers_identical_request_counts(self):
        population = build_population(BENCH_SEED, PARAMS)
        first = generate_schedule(PROFILE, BENCH_SEED,
                                  n_ranks=len(population))
        second = generate_schedule(PROFILE, BENCH_SEED,
                                   n_ranks=len(population))
        assert first.fingerprint() == second.fingerprint()
        assert [a.key() for a in first] == [a.key() for a in second]

        def offered_counts():
            with ScanService(service_config()) as service:
                driver = LoadDriver(first, population,
                                    time_scale=TIME_SCALE * 4)
                report = driver.run(service)
                service.drain()
            return report.offered, report.submitted + report.shed \
                + report.degraded

        assert offered_counts() == offered_counts() == \
            (len(first), len(first))
