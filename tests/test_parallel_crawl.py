"""Tests for the sharded parallel crawl pipeline.

The load-bearing guarantee: for a fixed seed, a parallel crawl at ANY
worker count — in either worker mode — produces a corpus whose
persistence fingerprint is bit-identical to the serial crawl's, plus the
identical :class:`CrawlStats` and ecosystem ground truth.
"""

import pytest

from repro.core.persistence import corpus_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.crawler import VISIT_COUNTER_STRIDE, visit_counter_for
from repro.crawler.parallel import (
    CrawlWorker,
    ParallelCrawler,
    fork_available,
    resolve_mode,
)
from repro.crawler.schedule import CrawlSchedule
from repro.datasets.world import WorldParams

SEED = 7

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2)

STUDY_CONFIG = StudyConfig(seed=SEED, days=2, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


def make_study(**overrides) -> Study:
    config = StudyConfig(**{**STUDY_CONFIG.__dict__, **overrides})
    return Study(config)


@pytest.fixture(scope="module")
def serial():
    """Serial crawl: fingerprint, stats, and served ground truth."""
    study = make_study()
    corpus, stats = study.build_crawler().crawl(study.build_schedule())
    return {
        "fingerprint": corpus_fingerprint(corpus),
        "stats": stats,
        "served": list(study.world.ecosystem.served_log),
        "unique_ads": corpus.unique_ads,
    }


class TestDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_parallel_matches_serial(self, serial, mode, n_workers):
        study = make_study()
        crawler = study.build_parallel_crawler(workers=n_workers, mode=mode)
        corpus, stats = crawler.crawl(study.build_schedule())
        assert corpus_fingerprint(corpus) == serial["fingerprint"]
        assert stats == serial["stats"]

    @pytest.mark.parametrize("mode", MODES)
    def test_served_ground_truth_matches_serial(self, serial, mode):
        study = make_study()
        crawler = study.build_parallel_crawler(workers=3, mode=mode)
        crawler.crawl(study.build_schedule())
        assert study.world.ecosystem.served_log == serial["served"]

    def test_study_crawl_uses_workers(self, serial):
        study = make_study(crawl_workers=2, crawl_worker_mode="thread")
        results = study.crawl()
        assert corpus_fingerprint(results.corpus) == serial["fingerprint"]
        assert results.crawl_stats == serial["stats"]

    def test_more_workers_than_visits(self, serial):
        study = make_study()
        crawler = study.build_parallel_crawler(workers=10_000, mode="thread")
        corpus, stats = crawler.crawl(study.build_schedule())
        assert corpus_fingerprint(corpus) == serial["fingerprint"]
        assert stats == serial["stats"]


class TestSharding:
    def test_shards_partition_the_schedule(self):
        schedule = CrawlSchedule(["http://a.com/", "http://b.com/"],
                                 days=3, refreshes_per_visit=2)
        all_visits = list(enumerate(schedule))
        seen = []
        for worker in range(3):
            shard = list(schedule.shard(worker, 3))
            assert all(index % 3 == worker for index, _ in shard)
            seen.extend(shard)
        assert sorted(seen) == all_visits

    def test_shard_validation(self):
        schedule = CrawlSchedule(["http://a.com/"], days=1, refreshes_per_visit=1)
        with pytest.raises(ValueError):
            list(schedule.shard(0, 0))
        with pytest.raises(ValueError):
            list(schedule.shard(2, 2))

    def test_visit_counter_ranges_disjoint(self):
        assert visit_counter_for(0) == 0
        assert visit_counter_for(1) - visit_counter_for(0) == VISIT_COUNTER_STRIDE
        # Far below the scanning service's pinned-counter base.
        assert visit_counter_for(200_000) < 0x4000_0000


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelCrawler(lambda isolated: None, n_workers=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            resolve_mode("fibers")

    def test_auto_resolves(self):
        assert resolve_mode("auto") in ("process", "thread")


class TestFailurePropagation:
    @pytest.mark.parametrize("mode", MODES)
    def test_worker_crash_surfaces(self, mode):
        def broken_factory(isolated: bool) -> CrawlWorker:
            raise RuntimeError("worker build exploded")

        schedule = CrawlSchedule(["http://a.com/", "http://b.com/"],
                                 days=1, refreshes_per_visit=1)
        crawler = ParallelCrawler(broken_factory, n_workers=2, mode=mode)
        with pytest.raises(RuntimeError):
            crawler.crawl(schedule)


class TestStreamingIntegration:
    def test_parallel_stream_crawl_matches_serial(self, serial):
        from repro.service import ScanService, ServiceConfig, stream_crawl

        config = ServiceConfig(seed=SEED, n_workers=2, world_params=PARAMS,
                               batch_max_size=4)
        study = make_study()
        crawler = study.build_parallel_crawler(workers=2, mode="thread")
        with ScanService(config) as service:
            corpus, stats, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            results = {ad_id: t.result() for ad_id, t in tickets.items()}
        assert corpus_fingerprint(corpus) == serial["fingerprint"]
        assert stats == serial["stats"]
        assert len(results) == serial["unique_ads"]
