"""Tests for the deterministic open-loop traffic generator.

The load-bearing guarantee: a schedule is a pure function of ``(seed,
profile, n_ranks, tenants)`` — same inputs, bit-identical arrival
sequence (times, phases, creative ranks, tenant assignment) — and the
open-loop driver accounts for every offered arrival exactly once
(submitted, shed, or refused), never silently slowing down to the
service's pace.
"""

import pytest

from repro.datasets.world import WorldParams
from repro.loadgen import (
    LoadDriver,
    LoadProfile,
    Phase,
    build_population,
    burst_profile,
    diurnal_profile,
    generate_schedule,
    load_profile,
    steady_profile,
)
from repro.service import ScanService, ServiceConfig

SEED = 7

PARAMS = WorldParams(n_top_sites=4, n_bottom_sites=4, n_other_sites=4,
                     n_feed_sites=2,
                     n_benign_campaigns=10, n_malicious_campaigns=4,
                     variants_per_benign=2, variants_per_malicious=1)


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=SEED, n_workers=2, world_params=PARAMS,
                    batch_max_size=4,
                    queue_capacity=1024)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def population():
    return build_population(SEED, PARAMS)


class TestProfiles:
    def test_flat_phase_holds_its_rate(self):
        phase = Phase("p", duration=10.0, rate=5.0)
        assert phase.rate_at(0.0) == phase.rate_at(9.9) == 5.0

    def test_ramp_phase_interpolates_linearly(self):
        phase = Phase("ramp", duration=10.0, rate=0.0, rate_end=100.0)
        assert phase.rate_at(0.0) == 0.0
        assert phase.rate_at(5.0) == pytest.approx(50.0)
        assert phase.rate_at(10.0) == pytest.approx(100.0)

    def test_profile_duration_sums_phases(self):
        assert burst_profile(warm=1.0, burst=1.5, cooldown=1.0,
                             idle=1.5).duration == pytest.approx(5.0)

    def test_phase_at_walks_segments(self):
        profile = burst_profile(warm=1.0, burst=1.5)
        assert profile.phase_at(0.5)[0].name == "warm"
        assert profile.phase_at(1.2)[0].name == "burst"

    def test_scaled_multiplies_rates_not_durations(self):
        base = diurnal_profile(peak_rate=100.0, trough_rate=10.0)
        scaled = base.scaled(0.5)
        assert scaled.duration == base.duration
        assert scaled.rate_at(0.0) == pytest.approx(base.rate_at(0.0) * 0.5)

    def test_spec_parsing(self):
        assert load_profile("burst").name == "burst"
        assert load_profile("steady:2.5").rate_at(0.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            load_profile("sawtooth")
        with pytest.raises(ValueError):
            load_profile("burst:lots")

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase("bad", duration=0.0, rate=1.0)
        with pytest.raises(ValueError):
            Phase("bad", duration=1.0, rate=-1.0)
        with pytest.raises(ValueError):
            LoadProfile("empty", ())


class TestScheduleDeterminism:
    def test_same_seed_is_bit_identical(self):
        first = generate_schedule(burst_profile(), SEED, n_ranks=24)
        second = generate_schedule(burst_profile(), SEED, n_ranks=24)
        assert first.fingerprint() == second.fingerprint()
        assert [a.key() for a in first] == [a.key() for a in second]

    def test_different_seeds_diverge(self):
        first = generate_schedule(burst_profile(), SEED, n_ranks=24)
        second = generate_schedule(burst_profile(), SEED + 1, n_ranks=24)
        assert first.fingerprint() != second.fingerprint()

    def test_arrivals_are_ordered_and_in_range(self):
        schedule = generate_schedule(diurnal_profile(), SEED, n_ranks=24)
        times = [a.at for a in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < schedule.profile.duration for t in times)
        assert [a.index for a in schedule] == list(range(len(schedule)))

    def test_silent_phases_produce_no_arrivals(self):
        schedule = generate_schedule(burst_profile(), SEED, n_ranks=24)
        assert "idle" not in schedule.counts_by_phase()

    def test_appending_an_idle_tail_preserves_earlier_arrivals(self):
        base = steady_profile(rate=40.0, duration=4.0)
        extended = LoadProfile("steady+idle", base.phases
                               + (Phase("tail", 5.0, 0.0),))
        short = generate_schedule(base, SEED, n_ranks=24)
        long = generate_schedule(extended, SEED, n_ranks=24)
        assert [a.key() for a in short] == [a.key() for a in long]

    def test_zipf_skew_makes_rank_zero_modal(self):
        schedule = generate_schedule(burst_profile(), SEED, n_ranks=24)
        counts: dict[int, int] = {}
        for arrival in schedule:
            counts[arrival.rank] = counts.get(arrival.rank, 0) + 1
        assert max(counts, key=counts.get) == 0

    def test_ramp_density_tracks_the_rate(self):
        # The diurnal morning ramps 10 -> 120/s over 2s while the night
        # holds 10/s for 1s: the ramp must land far more arrivals.
        schedule = generate_schedule(
            diurnal_profile(peak_rate=120.0, trough_rate=10.0, day=6.0),
            SEED, n_ranks=24)
        by_phase = schedule.counts_by_phase()
        assert by_phase.get("morning", 0) > 3 * by_phase.get("night", 1)

    def test_tenant_assignment_uses_only_the_given_tenants(self):
        tenants = ["acme", "globex"]
        schedule = generate_schedule(burst_profile(), SEED, n_ranks=24,
                                     tenants=tenants)
        seen = {a.tenant for a in schedule}
        assert seen == set(tenants)
        bare = generate_schedule(burst_profile(), SEED, n_ranks=24)
        assert {a.tenant for a in bare} == {None}

    def test_tenant_assignment_does_not_perturb_timing(self):
        bare = generate_schedule(burst_profile(), SEED, n_ranks=24)
        tenanted = generate_schedule(burst_profile(), SEED, n_ranks=24,
                                     tenants=["acme"])
        assert [(a.at, a.rank) for a in bare] == \
               [(a.at, a.rank) for a in tenanted]

    def test_max_arrivals_caps_the_schedule(self):
        schedule = generate_schedule(burst_profile(), SEED, n_ranks=24,
                                     max_arrivals=10)
        assert len(schedule) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_schedule(burst_profile(), SEED, n_ranks=0)
        with pytest.raises(ValueError):
            generate_schedule(burst_profile(), SEED, n_ranks=5, tenants=[])


class TestPopulation:
    def test_same_seed_same_rank_order(self, population):
        again = build_population(SEED, PARAMS)
        assert [r.content_hash for r in again.records] == \
               [r.content_hash for r in population.records]

    def test_rank_order_is_seed_shuffled(self, population):
        other = build_population(SEED + 1, PARAMS)
        assert len(other) == len(population)
        assert [r.content_hash for r in other.records] != \
               [r.content_hash for r in population.records]

    def test_records_are_content_pure(self, population):
        record = population.record_for_rank(0)
        assert record.ad_id.startswith("sight:")
        assert record.impressions == []

    def test_max_creatives_truncates(self):
        small = build_population(SEED, PARAMS, max_creatives=5)
        assert len(small) == 5


class TestDriver:
    def test_open_loop_accounts_for_every_arrival(self, population):
        schedule = generate_schedule(burst_profile(), SEED,
                                     n_ranks=len(population))
        tickets: list = []
        with ScanService(service_config()) as service:
            driver = LoadDriver(schedule, population, time_scale=50.0)
            report = driver.run(service, tickets_out=tickets)
            service.drain()
            for ticket in tickets:
                assert ticket.result(timeout=60) is not None
        assert report.offered == len(schedule)
        assert report.submitted + report.shed + report.degraded == \
            report.offered
        assert report.submitted == len(tickets)

    def test_replay_offers_identical_request_counts(self, population):
        schedule = generate_schedule(steady_profile(), SEED,
                                     n_ranks=len(population))

        def run_once():
            with ScanService(service_config()) as service:
                driver = LoadDriver(schedule, population, time_scale=50.0)
                report = driver.run(service)
                service.drain()
            return report

        first, second = run_once(), run_once()
        assert first.offered == second.offered == len(schedule)
        assert first.submitted == second.submitted

    def test_overload_sheds_instead_of_stalling(self, population):
        schedule = generate_schedule(burst_profile(), SEED,
                                     n_ranks=len(population))
        config = service_config(queue_capacity=1, queue_policy="reject",
                                n_workers=1, batch_max_size=1)
        with ScanService(config) as service:
            driver = LoadDriver(schedule, population, time_scale=200.0)
            report = driver.run(service)
            service.drain()
        assert report.shed > 0
        assert report.submitted + report.shed == report.offered

    def test_gateway_run_counts_refusals_by_status(self, population):
        from repro.gateway import ScanGateway, Tenant

        schedule = generate_schedule(
            steady_profile(rate=40.0, duration=2.0), SEED,
            n_ranks=len(population), tenants=["tight"])
        with ScanService(service_config()) as service:
            gateway = ScanGateway(service)
            key = gateway.register_tenant(
                Tenant("tight", rate_limit=3, rate_window=60.0))
            driver = LoadDriver(schedule, population, time_scale=100.0)
            report = driver.run_gateway(gateway, {"tight": key})
            gateway.drain()
        assert report.submitted == 3
        assert report.refusals.get(429) == report.shed
        assert report.shed == report.offered - 3

    def test_time_scale_must_be_positive(self, population):
        schedule = generate_schedule(steady_profile(), SEED,
                                     n_ranks=len(population))
        with pytest.raises(ValueError):
            LoadDriver(schedule, population, time_scale=0.0)
