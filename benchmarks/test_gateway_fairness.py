"""Gateway fairness under a flooding tenant, as one JSON-emitting bench.

The scenario the gateway exists for: a well-behaved *victim* tenant
(``interactive`` priority, modest volume) shares the front door with a
*flooder* (``best_effort``) that submits at **10× its rate limit**.  The
service behind them is deliberately bottlenecked (one worker, a tiny
ingest queue) so the admission buffer — where weighted-fair scheduling
lives — carries a real backlog.

Two claims are asserted against a solo baseline of the victim running
alone on an identical service:

* the victim's completed-scan throughput stays within ``2×`` of solo;
* the victim's admission p99 latency stays within ``2×`` of solo;

and the flooder's refusals are *exact*: with the rate window much longer
than the bench, round 0 of its burst admits precisely ``limit``
submissions and every later round is throttled, so the per-tenant
counters are closed-form numbers, not approximations.

Emits ``GATEWAY_FAIRNESS_JSON {...}`` on stdout.  Set ``BENCH_SMOKE=1``
to shrink the workload and skip the 2× floors (counter exactness and
JSON shape are still asserted).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.study import Study, StudyConfig
from repro.datasets.world import WorldParams
from repro.gateway import (
    GatewayConfig,
    RateLimitedError,
    ScanGateway,
    Tenant,
)
from repro.service import ScanService, ServiceConfig

from conftest import BENCH_SEED

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

# Victim volume / flooder rate limit; the flooder attempts 10x its limit.
VICTIM_ADS = 12 if SMOKE else 60
FLOODER_LIMIT = 24 if SMOKE else 110
FLOOD_ROUNDS = 10
# Longer than any bench run, so throttle decisions are exact counts.
FLOOD_WINDOW = 10_000.0

FAIRNESS_FLOOR = 2.0  # contested victim must stay within 2x of solo

PARAMS = WorldParams(n_top_sites=24, n_bottom_sites=24, n_other_sites=24,
                     n_feed_sites=6, n_benign_campaigns=48,
                     n_malicious_campaigns=12, variants_per_benign=4,
                     variants_per_malicious=2)


def service_config() -> ServiceConfig:
    # One worker + a 4-deep ingest queue: the scan pool is the
    # bottleneck, so admitted work queues *in the gateway*, which is the
    # layer under test.
    return ServiceConfig(seed=BENCH_SEED, n_workers=1, queue_capacity=4,
                         world_params=PARAMS, batch_max_size=2)


@pytest.fixture(scope="module")
def record_sets():
    corpus = Study(StudyConfig(seed=BENCH_SEED, days=2,
                               refreshes_per_visit=3,
                               world_params=PARAMS)).crawl().corpus
    unique, seen = [], set()
    for record in corpus.records():
        if record.content_hash not in seen:
            seen.add(record.content_hash)
            unique.append(record)
    needed = FLOODER_LIMIT + VICTIM_ADS
    assert len(unique) >= needed, (len(unique), needed)
    return unique[:FLOODER_LIMIT], unique[FLOODER_LIMIT:needed]


def victim_tenant() -> Tenant:
    return Tenant("victim", priority="interactive", rate_limit=None)


def run_victim(gateway: ScanGateway, key: str, records) -> dict:
    """Submit the victim's records and block until its last verdict."""
    started = time.perf_counter()
    tickets = [gateway.submit_record(key, record) for record in records]
    for ticket in tickets:
        ticket.result(timeout=120)
    elapsed = time.perf_counter() - started
    return {"elapsed": elapsed, "throughput": len(records) / elapsed}


class TestGatewayFairness:
    def test_flooded_victim_stays_within_2x_of_solo(self, record_sets):
        flooder_records, victim_records = record_sets

        # -- solo baseline: the victim alone on an identical stack ------
        with ScanService(service_config()) as service:
            gateway = ScanGateway(service, config=GatewayConfig())
            key = gateway.register_tenant(victim_tenant())
            solo = run_victim(gateway, key, victim_records)
            gateway.drain(timeout=120)
            solo_p99 = gateway.tenant_rollup(
                "victim")["admission_latency"]["p99"]

        # -- contested: flooder bursts 10x its limit, then the victim --
        with ScanService(service_config()) as service:
            gateway = ScanGateway(service, config=GatewayConfig())
            victim_key = gateway.register_tenant(victim_tenant())
            flooder_key = gateway.register_tenant(Tenant(
                "flooder", priority="best_effort",
                rate_limit=FLOODER_LIMIT, rate_window=FLOOD_WINDOW))
            throttled = 0
            for _ in range(FLOOD_ROUNDS):
                for record in flooder_records:
                    try:
                        gateway.submit_record(flooder_key, record)
                    except RateLimitedError:
                        throttled += 1
            contested = run_victim(gateway, victim_key, victim_records)
            gateway.drain(timeout=120)
            victim_rollup = gateway.tenant_rollup("victim")
            flooder_rollup = gateway.tenant_rollup("flooder")
            stats = gateway.stats()
        contested_p99 = victim_rollup["admission_latency"]["p99"]

        # -- the flooder's refusals are closed-form exact ---------------
        expected_throttled = (FLOOD_ROUNDS - 1) * FLOODER_LIMIT
        assert throttled == expected_throttled
        assert flooder_rollup["counters"]["throttled"] == expected_throttled
        assert flooder_rollup["counters"]["admitted"] == FLOODER_LIMIT
        assert flooder_rollup["counters"]["submitted"] == FLOODER_LIMIT
        assert flooder_rollup["usage"]["fresh_scans"] == FLOODER_LIMIT
        assert stats["totals"]["gateway_throttled"] == expected_throttled
        # The victim was never refused anything.
        assert victim_rollup["counters"]["admitted"] == len(victim_records)
        assert victim_rollup["counters"].get("throttled", 0) == 0
        assert victim_rollup["usage"]["quota_rejections"] == 0

        payload = {
            "config": {
                "victim_ads": len(victim_records),
                "flooder_limit": FLOODER_LIMIT,
                "flood_rounds": FLOOD_ROUNDS,
                "smoke": SMOKE,
            },
            "solo": {
                "throughput_ads_per_s": round(solo["throughput"], 1),
                "admission_p99_s": round(solo_p99, 6),
            },
            "contested": {
                "throughput_ads_per_s": round(contested["throughput"], 1),
                "admission_p99_s": round(contested_p99, 6),
                "victim_slowdown": round(
                    contested["elapsed"] / solo["elapsed"], 3),
            },
            "flooder": {
                "admitted": FLOODER_LIMIT,
                "throttled": expected_throttled,
            },
            "floors": {"enforced": not SMOKE, "max_ratio": FAIRNESS_FLOOR},
        }
        print(f"\nGATEWAY_FAIRNESS_JSON {json.dumps(payload, sort_keys=True)}")

        if SMOKE:
            return
        assert contested["throughput"] * FAIRNESS_FLOOR >= \
            solo["throughput"], payload["contested"]
        # Guard the degenerate case where nothing ever queued (p99 ~ 0):
        # only ratio-check latencies that are measurably nonzero.
        if solo_p99 > 1e-4:
            assert contested_p99 <= solo_p99 * FAIRNESS_FLOOR, \
                payload["contested"]
