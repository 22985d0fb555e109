"""The multi-tenant scan gateway: auth, rate limits, quotas, admission.

Policy layers are tested in isolation against a manual clock (every
decision is deterministic), then end to end against a real
:class:`ScanService`: verdicts through the gateway are bit-identical to
direct submissions, per-tenant counters and spend are exact, and the
HTTP-shaped route table returns the right status codes.
"""

import threading

import pytest

from repro.core.persistence import verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.datasets.world import WorldParams
from repro.gateway import (
    AdmissionBuffer,
    AdmissionRejectedError,
    AuthenticationError,
    GatewayConfig,
    GatewayDegradedError,
    ManualClock,
    MemorySlidingWindow,
    QuotaExceededError,
    QuotaLedger,
    RateLimitedError,
    ScanGateway,
    Tenant,
    TenantDisabledError,
    TenantRegistry,
    hash_key,
    mint_key,
)
from repro.service import ScanService, ServiceConfig

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
def records(corpus):
    return corpus.records()


def make_gateway(service, clock=None, require_auth=True,
                 **config_overrides) -> ScanGateway:
    config = GatewayConfig(clock=clock or ManualClock(),
                           require_auth=require_auth, **config_overrides)
    return ScanGateway(service, config=config)


# -- authentication ------------------------------------------------------------


class TestAuth:
    def test_keys_are_stored_hashed_only(self):
        registry = TenantRegistry()
        key = registry.register(Tenant("acme"))
        assert key  # a key was minted
        stored = set(registry._by_hash)
        assert key not in stored
        assert hash_key(key) in stored

    def test_authenticate_roundtrip(self):
        registry = TenantRegistry()
        key = registry.register(Tenant("acme", priority="interactive"))
        tenant = registry.authenticate(key)
        assert tenant.tenant_id == "acme"
        assert tenant.weight == 4

    def test_unknown_and_missing_keys_refused(self):
        registry = TenantRegistry()
        registry.register(Tenant("acme"))
        with pytest.raises(AuthenticationError):
            registry.authenticate("rg_not_a_real_key")
        with pytest.raises(AuthenticationError):
            registry.authenticate(None)
        with pytest.raises(AuthenticationError):
            registry.authenticate("")

    def test_disabled_tenant_is_403_not_401(self):
        registry = TenantRegistry()
        key = registry.register(Tenant("acme"))
        registry.set_enabled("acme", False)
        with pytest.raises(TenantDisabledError):
            registry.authenticate(key)
        registry.set_enabled("acme", True)
        assert registry.authenticate(key).tenant_id == "acme"

    def test_minted_keys_are_deterministic_per_seed(self):
        assert mint_key(1, "acme") == mint_key(1, "acme")
        assert mint_key(1, "acme") != mint_key(2, "acme")
        assert mint_key(1, "acme") != mint_key(1, "bulk")
        registry = TenantRegistry(secret_seed=99)
        assert registry.register(Tenant("acme")) == mint_key(99, "acme")

    def test_duplicate_tenant_or_key_rejected(self):
        registry = TenantRegistry()
        registry.register(Tenant("acme"), api_key="k1")
        with pytest.raises(ValueError):
            registry.register(Tenant("acme"), api_key="k2")
        with pytest.raises(ValueError):
            registry.register(Tenant("other"), api_key="k1")

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError):
            Tenant("acme", priority="platinum")

    def test_file_roundtrip_json_and_jsonl(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            '[{"tenant_id": "a", "priority": "interactive", "api_key": "ka",'
            '  "max_spend": 50},\n'
            ' {"tenant_id": "b", "rate_limit": 5, "rate_window": 10}]')
        registry = TenantRegistry.from_file(path, secret_seed=3)
        assert registry.authenticate("ka").tenant_id == "a"
        assert registry.authenticate(mint_key(3, "b")).rate_limit == 5

        jsonl = tmp_path / "tenants.jsonl"
        jsonl.write_text('{"tenant_id": "c", "api_key": "kc"}\n'
                         '{"tenant_id": "d", "priority": "best_effort"}\n')
        registry = TenantRegistry.from_file(jsonl, secret_seed=3)
        assert registry.authenticate("kc").tenant_id == "c"
        assert len(registry) == 2

    def test_save_never_leaks_plaintext_and_reloads(self, tmp_path):
        registry = TenantRegistry()
        key = registry.register(Tenant("acme"), api_key="super-secret")
        path = tmp_path / "saved.json"
        registry.save(path)
        assert "super-secret" not in path.read_text()
        reloaded = TenantRegistry.from_file(path)
        assert reloaded.authenticate(key).tenant_id == "acme"


# -- rate limiting -------------------------------------------------------------


class TestRateLimit:
    def test_sliding_window_admits_then_throttles(self):
        clock = ManualClock()
        backend = MemorySlidingWindow()
        for i in range(3):
            decision = backend.check("t", 3, 10.0, clock())
            assert decision.allowed, i
        refused = backend.check("t", 3, 10.0, clock())
        assert not refused.allowed
        assert refused.retry_after == pytest.approx(10.0)
        assert refused.in_window == 3

    def test_window_actually_slides(self):
        clock = ManualClock()
        backend = MemorySlidingWindow()
        backend.check("t", 2, 10.0, clock())          # t=0
        clock.advance(6.0)
        backend.check("t", 2, 10.0, clock())          # t=6
        clock.advance(3.0)                            # t=9: both in window
        refused = backend.check("t", 2, 10.0, clock())
        assert not refused.allowed
        assert refused.retry_after == pytest.approx(1.0)
        clock.advance(1.5)                            # t=10.5: t=0 expired
        assert backend.check("t", 2, 10.0, clock()).allowed

    def test_tenants_do_not_share_windows(self):
        clock = ManualClock()
        backend = MemorySlidingWindow()
        assert backend.check("a", 1, 10.0, clock()).allowed
        assert backend.check("b", 1, 10.0, clock()).allowed
        assert not backend.check("a", 1, 10.0, clock()).allowed
        stats = backend.stats()
        assert stats["allowed_total"] == 2
        assert stats["throttled_total"] == 1

    def test_decisions_are_deterministic(self):
        def run():
            clock = ManualClock()
            backend = MemorySlidingWindow()
            out = []
            for step in range(20):
                out.append(backend.check("t", 3, 5.0, clock()).allowed)
                clock.advance(1.0)
            return out

        assert run() == run()


# -- quotas --------------------------------------------------------------------


class TestQuota:
    def test_submission_quota_exhausts(self):
        ledger = QuotaLedger()
        tenant = Tenant("t", max_submissions=2)
        ledger.admit(tenant)
        ledger.admit(tenant)
        with pytest.raises(QuotaExceededError) as excinfo:
            ledger.admit(tenant)
        assert excinfo.value.kind == "submissions"
        assert ledger.usage("t").quota_rejections == 1

    def test_spend_quota_exhausts_and_cache_hits_bill_cheaper(self):
        ledger = QuotaLedger(scan_cost=10.0, cached_cost=1.0)
        tenant = Tenant("t", max_spend=12.0)
        ledger.admit(tenant)
        assert ledger.charge_scan("t", cached=False) == 10.0
        ledger.admit(tenant)
        assert ledger.charge_scan("t", cached=True) == 1.0
        ledger.admit(tenant)  # spend 11 < 12: still admitted
        ledger.charge_scan("t", cached=True)
        with pytest.raises(QuotaExceededError) as excinfo:
            ledger.admit(tenant)  # spend 12 >= 12
        assert excinfo.value.kind == "spend"
        usage = ledger.usage("t")
        assert usage.fresh_scans == 1
        assert usage.cached_hits == 2

    def test_refund_undoes_an_admission_charge(self):
        ledger = QuotaLedger()
        tenant = Tenant("t", max_submissions=1)
        ledger.admit(tenant)
        ledger.refund_submission("t")
        ledger.admit(tenant)  # does not raise

    def test_cached_cost_cannot_exceed_scan_cost(self):
        with pytest.raises(ValueError):
            QuotaLedger(scan_cost=1.0, cached_cost=2.0)


# -- weighted-fair admission ---------------------------------------------------


class TestAdmission:
    def test_stride_order_matches_weights(self):
        buffer = AdmissionBuffer(capacity=64)
        for i in range(8):
            buffer.push("inter", 4, f"i{i}")
            buffer.push("batch", 2, f"b{i}")
            buffer.push("best", 1, f"e{i}")
        drained = [buffer.pop()[0] for _ in range(21)]
        # Over any window the drain ratio tracks the 4:2:1 weights.
        assert drained[:7].count("inter") == 4
        assert drained[:7].count("batch") == 2
        assert drained[:7].count("best") == 1
        assert drained.count("inter") == 8  # exhausted its 8 first
        # Within one tenant, FIFO order is preserved.
        buffer2 = AdmissionBuffer()
        buffer2.push("t", 1, "first")
        buffer2.push("t", 1, "second")
        assert buffer2.pop()[1] == "first"
        assert buffer2.pop()[1] == "second"

    def test_idle_tenant_forfeits_saved_credit(self):
        buffer = AdmissionBuffer()
        # "hog" drains 6 items alone, advancing virtual time.
        for i in range(6):
            buffer.push("hog", 1, i)
        for _ in range(6):
            assert buffer.pop()[0] == "hog"
        # A newcomer does not owe the hog's history: with equal weights
        # they now alternate instead of the newcomer draining 6 first.
        for i in range(4):
            buffer.push("new", 1, i)
            buffer.push("hog", 1, 10 + i)
        drained = [buffer.pop()[0] for _ in range(8)]
        assert drained.count("new") == 4
        assert drained.count("hog") == 4
        assert set(drained[:2]) == {"new", "hog"}

    def test_capacity_rejects_and_counts(self):
        buffer = AdmissionBuffer(capacity=2)
        buffer.push("t", 1, 1)
        buffer.push("t", 1, 2)
        with pytest.raises(AdmissionRejectedError):
            buffer.push("t", 1, 3)
        stats = buffer.stats()
        assert stats["rejected_total"] == 1
        assert stats["high_water"] == 2

    def test_push_front_restores_fair_position(self):
        buffer = AdmissionBuffer()
        buffer.push("a", 1, "a1")
        buffer.push("b", 1, "b1")
        tenant, item = buffer.pop()
        assert (tenant, item) == ("a", "a1")
        buffer.push_front(tenant, item)
        # Retrying reproduces the same order.
        assert buffer.pop() == ("a", "a1")
        assert buffer.pop() == ("b", "b1")


# -- end to end over a real ScanService ---------------------------------------


class TestGatewayEndToEnd:
    def test_verdicts_match_direct_service_bit_for_bit(self, records):
        subset = records[:6]
        with ScanService(service_config()) as service:
            direct = {r.ad_id: verdict_fingerprint(
                service.submit(r).result(timeout=60)) for r in subset}
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme"))
            tickets = [gateway.submit_record(key, r) for r in subset]
            via_gateway = {t.record.ad_id: verdict_fingerprint(
                t.result(timeout=60)) for t in tickets}
        assert via_gateway == direct

    def test_per_tenant_counters_and_billing_are_exact(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key_a = gateway.register_tenant(Tenant("acme", priority="interactive"))
            key_b = gateway.register_tenant(Tenant("bulk", priority="batch"))
            # acme scans two creatives, then resubmits one (cache hit);
            # bulk submits one of acme's creatives (cross-tenant dedup).
            for record in records[:2]:
                gateway.submit_record(key_a, record).result(timeout=60)
            gateway.submit_record(key_a, records[0]).result(timeout=60)
            gateway.submit_record(key_b, records[1]).result(timeout=60)
            gateway.drain(timeout=60)
            rollup_a = gateway.tenant_rollup("acme")
            rollup_b = gateway.tenant_rollup("bulk")
        assert rollup_a["counters"]["submitted"] == 3
        assert rollup_a["counters"]["admitted"] == 3
        assert rollup_a["counters"]["completed"] == 3
        assert rollup_a["usage"]["fresh_scans"] == 2
        assert rollup_a["usage"]["cached_hits"] == 1
        assert rollup_a["usage"]["spend"] == pytest.approx(21.0)
        # bulk's submission was someone else's creative: billed cached.
        assert rollup_b["usage"]["fresh_scans"] == 0
        assert rollup_b["usage"]["cached_hits"] == 1
        assert rollup_b["usage"]["spend"] == pytest.approx(1.0)
        mix = (rollup_a["counters"].get("malicious", 0),
               rollup_a["counters"].get("benign", 0))
        assert sum(mix) == 3

    def test_throttled_tenant_gets_429_with_retry_after(self, records):
        clock = ManualClock()
        with ScanService(service_config()) as service:
            gateway = make_gateway(service, clock=clock)
            key = gateway.register_tenant(
                Tenant("spiky", rate_limit=2, rate_window=30.0))
            gateway.submit_record(key, records[0])
            gateway.submit_record(key, records[1])
            with pytest.raises(RateLimitedError) as excinfo:
                gateway.submit_record(key, records[2])
            assert excinfo.value.retry_after == pytest.approx(30.0)
            clock.advance(30.5)
            gateway.submit_record(key, records[2])  # window slid: admitted
            gateway.drain(timeout=60)
            rollup = gateway.tenant_rollup("spiky")
        assert rollup["counters"]["throttled"] == 1
        assert rollup["counters"]["admitted"] == 3

    def test_quota_exhaustion_is_403_and_counted(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("capped", max_submissions=1))
            gateway.submit_record(key, records[0])
            with pytest.raises(QuotaExceededError):
                gateway.submit_record(key, records[1])
            gateway.drain(timeout=60)
            rollup = gateway.tenant_rollup("capped")
        assert rollup["usage"]["quota_rejections"] == 1
        assert rollup["counters"]["quota_rejected"] == 1
        assert rollup["counters"]["admitted"] == 1

    def test_anonymous_tenant_when_auth_optional(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service, require_auth=False)
            ticket = gateway.submit_record(None, records[0])
            assert ticket.tenant_id == "anonymous"
            assert ticket.result(timeout=60) is not None
            # A *wrong* key still refuses loudly — no silent demotion.
            with pytest.raises(AuthenticationError):
                gateway.submit_record("rg_wrong", records[1])

    def test_degraded_service_fails_gateway_tickets_and_health(self, records):
        switch_on = threading.Event()

        def fault_hook(index, task):
            if switch_on.is_set():
                raise RuntimeError("poisoned worker")

        config = service_config(n_workers=1, fault_hook=fault_hook,
                                breaker_threshold=1, breaker_cooldown=60.0,
                                scan_max_attempts=1)
        with ScanService(config) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme"))
            switch_on.set()
            failing = gateway.submit_record(key, records[0])
            with pytest.raises(RuntimeError):
                failing.result(timeout=30)
            # The dead letter is attributed to the tenant.
            letters = service.dead_letters.letters()
            assert letters and letters[0].tenant == "acme"
            # Breakers are now open: fresh submissions fail as degraded.
            assert service.pool.all_breakers_open
            degraded = gateway.submit_record(key, records[1])
            with pytest.raises(GatewayDegradedError):
                degraded.result(timeout=5)
            response = gateway.handle("GET", "/v1/health")
            assert response.status == 503
            assert response.body["degraded"]

    def test_decisions_are_reproducible_across_runs(self, records):
        def run() -> tuple:
            clock = ManualClock()
            outcomes = []
            with ScanService(service_config(n_workers=1)) as service:
                gateway = make_gateway(service, clock=clock)
                key_a = gateway.register_tenant(Tenant(
                    "a", priority="interactive", rate_limit=3,
                    rate_window=10.0, max_spend=100.0))
                key_b = gateway.register_tenant(Tenant(
                    "b", priority="best_effort", rate_limit=2,
                    rate_window=10.0, max_submissions=4))
                for step, record in enumerate(records[:10]):
                    key = key_a if step % 2 == 0 else key_b
                    try:
                        gateway.submit_record(key, record)
                        outcomes.append("ok")
                    except RateLimitedError as exc:
                        outcomes.append(f"429:{exc.retry_after:.3f}")
                    except QuotaExceededError:
                        outcomes.append("403")
                    clock.advance(1.0)
                gateway.drain(timeout=60)
                usage = (gateway.tenant_rollup("a")["usage"],
                         gateway.tenant_rollup("b")["usage"])
            return tuple(outcomes), usage

        assert run() == run()


# -- the HTTP shape ------------------------------------------------------------


class TestHttpShape:
    def test_missing_key_is_401(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            response = gateway.handle("POST", "/v1/scan",
                                      body={"html": records[0].html})
        assert response.status == 401
        assert response.body["error"] == "AuthenticationError"

    def test_scan_poll_and_fetch_lifecycle(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme"))
            headers = {"x-api-key": key}
            accepted = gateway.handle("POST", "/v1/scan", headers=headers,
                                      body={"html": records[0].html})
            assert accepted.status == 202
            ticket_id = accepted.body["ticket"]
            gateway.drain(timeout=60)
            fetched = gateway.handle("GET", f"/v1/verdicts/{ticket_id}",
                                     headers=headers)
            assert fetched.status == 200
            assert fetched.body["verdict"]["ad_id"].startswith("sight:")
            # Another tenant cannot read the ticket.
            other = gateway.register_tenant(Tenant("other"))
            stolen = gateway.handle("GET", f"/v1/verdicts/{ticket_id}",
                                    headers={"x-api-key": other})
            assert stolen.status == 403
            missing = gateway.handle("GET", "/v1/verdicts/tk-999999",
                                     headers=headers)
            assert missing.status == 404

    def test_scan_wait_returns_verdict_inline(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme"))
            response = gateway.handle(
                "POST", "/v1/scan", headers={"x-api-key": key},
                body={"html": records[0].html, "wait": True, "timeout": 60})
        assert response.status == 200
        assert response.body["status"] == "done"
        assert "verdict" in response.body

    def test_throttle_is_429_with_retry_after_header(self, records):
        clock = ManualClock()
        with ScanService(service_config()) as service:
            gateway = make_gateway(service, clock=clock)
            key = gateway.register_tenant(
                Tenant("spiky", rate_limit=1, rate_window=10.0))
            headers = {"x-api-key": key}
            first = gateway.handle("POST", "/v1/scan", headers=headers,
                                   body={"html": records[0].html})
            assert first.status == 202
            second = gateway.handle("POST", "/v1/scan", headers=headers,
                                    body={"html": records[1].html})
            assert second.status == 429
            assert second.headers["retry-after"] == "10.000"
            assert second.body["retry_after"] == pytest.approx(10.0)
            gateway.drain(timeout=60)

    def test_bad_body_is_400_and_unknown_route_404(self):
        with ScanService(service_config(n_workers=1)) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme"))
            bad = gateway.handle("POST", "/v1/scan",
                                 headers={"x-api-key": key}, body={})
            assert bad.status == 400
            lost = gateway.handle("GET", "/v2/nothing")
            assert lost.status == 404

    def test_health_stats_and_usage_endpoints(self, records):
        with ScanService(service_config()) as service:
            gateway = make_gateway(service)
            key = gateway.register_tenant(Tenant("acme", max_spend=500.0))
            gateway.handle("POST", "/v1/scan", headers={"x-api-key": key},
                           body={"html": records[0].html, "wait": True,
                                 "timeout": 60})
            health = gateway.handle("GET", "/v1/health")
            assert health.status == 200
            assert health.body["workers_alive"]
            assert health.body["queue"]["capacity"] == 256
            stats = gateway.handle("GET", "/v1/stats")
            assert stats.status == 200
            assert stats.body["totals"]["gateway_admitted"] == 1
            assert "acme" in stats.body["tenants"]
            usage = gateway.handle("GET", "/v1/usage",
                                   headers={"x-api-key": key})
            assert usage.status == 200
            assert usage.body["usage"]["submissions"] == 1
            assert usage.body["usage"]["spend"] == pytest.approx(10.0)
