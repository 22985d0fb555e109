"""Two tenants sharing one scan service through the multi-tenant gateway.

An ad network's security desk ("desk", interactive priority) and a bulk
research crawler ("crawler", best-effort priority with a tight rate
limit and a spend cap) submit the *same* creative set to one
:class:`ScanGateway`.  The run shows, in order:

* API-key auth — a forged key is refused with a 401 before any work;
* the weighted-fair admission buffer draining 4:1 in the desk's favour
  while both backlogs are queued behind a deliberately tiny ingest queue;
* the crawler hitting its rate limit (429s with a concrete
  ``retry-after``), then succeeding once the window slides;
* cheap billing for duplicate work — every creative the crawler submits
  was already scanned for the desk, so the crawler pays the cached rate;
* the crawler exhausting its spend quota (a 403);
* the per-tenant rollup report an operator would read.

Run:  PYTHONPATH=src python examples/multi_tenant_gateway.py
"""

from repro.core.study import Study, StudyConfig
from repro.datasets.world import WorldParams
from repro.gateway import (
    GatewayConfig,
    GatewayError,
    ManualClock,
    RateLimitedError,
    ScanGateway,
    Tenant,
)
from repro.service import ScanService, ServiceConfig

SEED = 2014

PARAMS = WorldParams(n_top_sites=10, n_bottom_sites=10, n_other_sites=10,
                     n_feed_sites=3)


def build_creatives():
    corpus = Study(StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                               world_params=PARAMS)).crawl().corpus
    unique, seen = [], set()
    for record in corpus.records():
        if record.content_hash not in seen:
            seen.add(record.content_hash)
            unique.append(record)
    return unique[:24]


def submit_all(gateway, key, records, label):
    """Submit a batch; returns (tickets, throttle count)."""
    tickets, throttled, retry_after = [], 0, 0.0
    for record in records:
        try:
            tickets.append(gateway.submit_record(key, record))
        except RateLimitedError as exc:
            throttled += 1
            retry_after = exc.retry_after
    note = f", {throttled} throttled with 429 retry-after {retry_after:g}s" \
        if throttled else ""
    print(f"  {label}: {len(tickets)} accepted{note}")
    return tickets, throttled


def admitted_counts(gateway):
    snapshot = gateway.metrics.snapshot()["counters"]
    return {tid: snapshot.get(f"tenant.{tid}.admitted", 0)
            for tid in ("desk", "crawler")}


def main() -> None:
    creatives = build_creatives()
    print(f"creative set: {len(creatives)} unique ads\n")

    # A manual clock makes every throttle/quota decision reproducible.
    clock = ManualClock()
    config = ServiceConfig(seed=SEED, n_workers=1, queue_capacity=4,
                           world_params=PARAMS, batch_max_size=2)
    with ScanService(config) as service:
        gateway = ScanGateway(service, config=GatewayConfig(clock=clock))
        desk_key = gateway.register_tenant(Tenant(
            "desk", name="security desk", priority="interactive"))
        crawler_key = gateway.register_tenant(Tenant(
            "crawler", name="bulk research crawler", priority="best_effort",
            rate_limit=10, rate_window=60.0, max_spend=20.0))

        print("--- auth ---")
        print(f"  desk key {desk_key[:14]}... (only its hash is stored)")
        refused = gateway.handle("POST", "/v1/scan",
                                 headers={"x-api-key": "rg_forged"},
                                 body={"html": creatives[0].html})
        print(f"  forged key: HTTP {refused.status} {refused.body['error']}")

        print("\n--- fair-share admission (desk weight 4 : crawler 1) ---")
        # Both tenants pile up a backlog; the tiny ingest queue means the
        # admission buffer, not the service, decides who goes next.
        desk_tickets, _ = submit_all(gateway, desk_key, creatives, "desk")
        crawler_tickets, _ = submit_all(gateway, crawler_key, creatives,
                                        "crawler")
        before = admitted_counts(gateway)
        target = sum(before.values()) + min(15, gateway.admission.depth)
        while sum(admitted_counts(gateway).values()) < target:
            gateway.pump()
        delta = {tid: count - before[tid]
                 for tid, count in admitted_counts(gateway).items()}
        print(f"  next {sum(delta.values())} admissions split "
              f"desk:{delta['desk']} crawler:{delta['crawler']} "
              f"(stride-scheduled 4:1)")

        gateway.drain(timeout=120)
        for ticket in desk_tickets + crawler_tickets:
            ticket.result(timeout=60)

        print("\n--- the rate window slides ---")
        clock.advance(61.0)
        remaining = creatives[len(crawler_tickets):]
        retried, _ = submit_all(gateway, crawler_key, remaining,
                                "crawler retry")
        gateway.drain(timeout=120)
        for ticket in retried:
            ticket.result(timeout=60)

        print("\n--- per-tenant rollups ---")
        for tenant_id in ("desk", "crawler"):
            rollup = gateway.tenant_rollup(tenant_id)
            usage, counters = rollup["usage"], rollup["counters"]
            print(f"  {tenant_id}:")
            print(f"    admitted {counters.get('admitted', 0)}, throttled "
                  f"{counters.get('throttled', 0)}, quota-rejected "
                  f"{counters.get('quota_rejected', 0)}")
            print(f"    spend {usage['spend']:g} "
                  f"({usage['fresh_scans']} fresh x 10 + "
                  f"{usage['cached_hits']} cached x 1)")
            print(f"    verdicts: {counters.get('malicious', 0)} malicious, "
                  f"{counters.get('benign', 0)} benign")

        print("\n--- quota exhaustion ---")
        # The crawler's spend cap (20.0) is now fully consumed; a fresh
        # window later, the refusal is the *quota's*, not the limiter's.
        clock.advance(61.0)
        response = gateway.handle(
            "POST", "/v1/scan", headers={"x-api-key": crawler_key},
            body={"html": "<html><body>one probe too many</body></html>"})
        print(f"  crawler probe: HTTP {response.status} "
              f"{response.body['error']} ({response.body['detail']})")

        health = gateway.handle("GET", "/v1/health")
        print(f"\nhealth: HTTP {health.status} status={health.body['status']} "
              f"queue high-water {health.body['queue']['high_water']}, "
              f"admission high-water {health.body['admission']['high_water']}")


if __name__ == "__main__":
    main()
