"""Autoscaler decision logic and the elastic-pool determinism contract.

Two layers:

* **decision function** — :meth:`Autoscaler.evaluate_once` driven with a
  manual clock and stub pool/queue: scale-up on depth or enqueue-wait
  pressure, cooldowns, the consecutive-idle requirement for scale-down,
  and the never-up-and-down-in-one-evaluation invariant;
* **determinism** — hermetic judging makes verdicts a pure function of
  ``(seed, world params, creative)``, so an autoscaled pool must produce
  bit-identical verdict fingerprints to any fixed pool, and an
  autoscaled service fed by a streamed parallel crawl (thread and fork
  worker modes) must reproduce the fixed-pool corpus fingerprint and
  first-sight verdicts exactly.
"""

import pytest

from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.gateway.clock import ManualClock
from repro.loadgen import LoadDriver, build_population, burst_profile, \
    generate_schedule
from repro.service import (
    Autoscaler,
    AutoscalerConfig,
    MetricsRegistry,
    ScanService,
    ServiceConfig,
    stream_crawl,
)

SEED = 7

PARAMS = WorldParams(n_top_sites=4, n_bottom_sites=4, n_other_sites=4,
                     n_feed_sites=2,
                     n_benign_campaigns=10, n_malicious_campaigns=4,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


class StubPool:
    """Just enough pool for the decision function: a resizable number."""

    def __init__(self, size=1, max_workers=8):
        self._size = size
        self.max_workers = max_workers
        self.peak_size = size
        self.min_size = size
        self.calls = []

    @property
    def size(self):
        return self._size

    def scale_to(self, n):
        n = min(n, self.max_workers)
        self.calls.append(n)
        self._size = n
        self.peak_size = max(self.peak_size, n)
        self.min_size = min(self.min_size, n)
        return n


class StubQueue:
    def __init__(self, depth=0):
        self.depth = depth


def make_scaler(size=1, depth=0, metrics=None, **config):
    defaults = dict(min_workers=1, max_workers=4, interval=0.01,
                    scale_up_depth_per_worker=2.0, scale_up_wait_p99=0.05,
                    up_cooldown=0.05, down_cooldown=0.25, idle_evals=3)
    defaults.update(config)
    clock = ManualClock()
    pool = StubPool(size=size, max_workers=defaults["max_workers"])
    queue = StubQueue(depth=depth)
    scaler = Autoscaler(pool, queue, metrics=metrics,
                        config=AutoscalerConfig(**defaults), clock=clock)
    return scaler, pool, queue, clock


class TestScaleUpDecisions:
    def test_queue_depth_pressure_scales_up(self):
        scaler, pool, _, _ = make_scaler(size=1, depth=5)
        event = scaler.evaluate_once()
        assert event is not None
        assert (event.direction, event.size_from, event.size_to) == \
            ("up", 1, 2)
        assert event.reason == "depth"
        assert pool.calls == [2]

    def test_up_cooldown_throttles_consecutive_ups(self):
        scaler, pool, queue, clock = make_scaler(size=1, depth=50)
        assert scaler.evaluate_once() is not None
        assert scaler.evaluate_once() is None  # still cooling down
        clock.advance(0.06)
        event = scaler.evaluate_once()
        assert event is not None and event.size_to == 3
        assert pool.calls == [2, 3]

    def test_enqueue_wait_pressure_scales_up_without_depth(self):
        metrics = MetricsRegistry()
        for _ in range(20):
            metrics.histogram("enqueue_wait").observe(0.2)
        scaler, pool, _, _ = make_scaler(size=1, depth=0, metrics=metrics)
        event = scaler.evaluate_once()
        assert event is not None and event.reason == "wait_p99"

    def test_saturated_at_max_does_nothing_but_is_not_idle(self):
        scaler, pool, queue, clock = make_scaler(size=4, depth=100,
                                                 max_workers=4)
        for _ in range(10):
            clock.advance(1.0)
            assert scaler.evaluate_once() is None
        assert pool.calls == []
        # Pressure kept resetting the idle streak: going idle now still
        # needs the full consecutive-idle run before any scale-down.
        queue.depth = 0
        clock.advance(1.0)
        assert scaler.evaluate_once() is None
        assert scaler.evaluate_once() is None
        assert scaler.evaluate_once() is not None  # third idle eval

    def test_never_scales_past_max_workers(self):
        scaler, pool, _, clock = make_scaler(size=1, depth=1000,
                                             max_workers=2, scale_up_step=8)
        event = scaler.evaluate_once()
        assert event.size_to == 2
        clock.advance(1.0)
        assert scaler.evaluate_once() is None
        assert pool.size == 2


class TestScaleDownDecisions:
    def test_down_requires_consecutive_idle_evals(self):
        scaler, pool, queue, clock = make_scaler(size=3, depth=0)
        clock.advance(10.0)  # well past any cooldown
        assert scaler.evaluate_once() is None
        assert scaler.evaluate_once() is None
        event = scaler.evaluate_once()
        assert (event.direction, event.size_from, event.size_to) == \
            ("down", 3, 2)
        assert event.reason == "idle"

    def test_pressure_resets_the_idle_streak(self):
        scaler, pool, queue, clock = make_scaler(size=3, depth=0,
                                                 max_workers=3)
        clock.advance(10.0)
        scaler.evaluate_once()
        scaler.evaluate_once()
        queue.depth = 50  # burst arrives on the verge of scaling down
        assert scaler.evaluate_once() is None  # at max: no up, streak reset
        queue.depth = 0
        assert scaler.evaluate_once() is None
        assert scaler.evaluate_once() is None
        assert scaler.evaluate_once() is not None

    def test_down_cooldown_spaces_consecutive_downs(self):
        scaler, pool, queue, clock = make_scaler(size=4, depth=0,
                                                 idle_evals=1)
        clock.advance(10.0)
        assert scaler.evaluate_once() is not None  # 4 -> 3
        assert scaler.evaluate_once() is None      # cooling down
        clock.advance(0.3)
        assert scaler.evaluate_once() is not None  # 3 -> 2

    def test_scale_up_restarts_the_down_cooldown(self):
        scaler, pool, queue, clock = make_scaler(size=1, depth=50,
                                                 idle_evals=1)
        assert scaler.evaluate_once().direction == "up"
        queue.depth = 0
        clock.advance(0.1)  # past up_cooldown, inside down_cooldown
        assert scaler.evaluate_once() is None
        clock.advance(0.3)
        assert scaler.evaluate_once().direction == "down"

    def test_never_scales_below_min_workers(self):
        scaler, pool, queue, clock = make_scaler(size=1, depth=0,
                                                 idle_evals=1)
        clock.advance(10.0)
        for _ in range(5):
            clock.advance(1.0)
            assert scaler.evaluate_once() is None
        assert pool.size == 1


class TestTimelineAndStats:
    def test_every_move_is_recorded(self):
        scaler, pool, queue, clock = make_scaler(size=1, depth=50,
                                                 idle_evals=1)
        scaler.evaluate_once()
        queue.depth = 0
        clock.advance(1.0)
        scaler.evaluate_once()
        timeline = scaler.timeline()
        assert [e.direction for e in timeline] == ["up", "down"]
        stats = scaler.stats()
        assert stats["scale_ups"] == 1
        assert stats["scale_downs"] == 1
        assert stats["evaluations"] == 2
        assert len(stats["timeline"]) == 2
        assert stats["config"]["max_workers"] == 4

    def test_pool_size_gauge_tracks_moves(self):
        metrics = MetricsRegistry()
        scaler, pool, _, _ = make_scaler(size=1, depth=50, metrics=metrics)
        scaler.evaluate_once()
        assert metrics.gauge("pool_size").value == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(interval=0.0)


@pytest.fixture(scope="module")
def population():
    return build_population(SEED, PARAMS)


@pytest.fixture(scope="module")
def schedule(population):
    return generate_schedule(burst_profile(), SEED, n_ranks=len(population))


def run_load(population, schedule, **config_overrides):
    config = ServiceConfig(**{
        "seed": SEED, "n_workers": 2, "world_params": PARAMS,
        "batch_max_size": 4,
        "queue_capacity": 1024, **config_overrides})
    tickets: list = []
    with ScanService(config) as service:
        driver = LoadDriver(schedule, population, time_scale=20.0)
        report = driver.run(service, tickets_out=tickets)
        service.drain()
        fingerprints = {t.ad_id: verdict_fingerprint(t.result(timeout=60))
                        for t in tickets}
        pool_stats = service.stats()["pool"]
    assert report.submitted == report.offered  # ample queue: nothing shed
    return fingerprints, pool_stats


class TestAutoscaledVerdictDeterminism:
    @pytest.fixture(scope="class")
    def fixed_serial(self, population, schedule):
        return run_load(population, schedule, n_workers=1)[0]

    def test_fixed_four_workers_match_serial(self, population, schedule,
                                             fixed_serial):
        four, _ = run_load(population, schedule, n_workers=4)
        assert four == fixed_serial

    def test_autoscaled_pool_matches_serial(self, population, schedule,
                                            fixed_serial):
        scaled, pool_stats = run_load(
            population, schedule, autoscale_min=1, autoscale_max=4,
            worker_max_restarts=2)
        assert scaled == fixed_serial
        assert pool_stats["peak_size"] >= 1
        assert pool_stats["max_workers"] == 4

    def test_autoscaled_pool_matches_four_worker_start(self, population,
                                                       schedule,
                                                       fixed_serial):
        scaled, _ = run_load(
            population, schedule, n_workers=4,
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=4,
                                        interval=0.01, idle_evals=2,
                                        down_cooldown=0.05))
        assert scaled == fixed_serial


class TestAutoscaledStreamDeterminism:
    """Streamed parallel crawl into an autoscaled service, both modes."""

    @pytest.fixture(scope="class")
    def fixed_streamed(self):
        study = Study(STUDY_CONFIG)
        config = ServiceConfig(seed=SEED, n_workers=2, world_params=PARAMS,
                               batch_max_size=4)
        with ScanService(config) as service:
            corpus, _, tickets = stream_crawl(
                study.build_crawler(), study.build_schedule(), service)
            service.drain()
            verdicts = {ad_id: verdict_fingerprint(t.result(timeout=60))
                        for ad_id, t in tickets.items()}
        return {"fingerprint": corpus_fingerprint(corpus),
                "verdicts": verdicts}

    @pytest.mark.parametrize("mode", MODES)
    def test_autoscaled_streamed_crawl_is_bit_identical(self, mode,
                                                        fixed_streamed):
        study = Study(STUDY_CONFIG)
        crawler = study.build_parallel_crawler(workers=2, mode=mode)
        config = ServiceConfig(seed=SEED, n_workers=2, world_params=PARAMS,
                               batch_max_size=4,
                               autoscale_min=1, autoscale_max=4,
                               worker_max_restarts=2)
        with ScanService(config) as service:
            corpus, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = {ad_id: verdict_fingerprint(t.result(timeout=60))
                        for ad_id, t in tickets.items()}
        assert corpus_fingerprint(corpus) == fixed_streamed["fingerprint"]
        assert verdicts == fixed_streamed["verdicts"]
