"""Tests for the overlapped streaming pipeline.

The tentpole guarantee: an overlapped parallel streamed crawl — shard
workers submitting first-sight creatives mid-crawl, the service
deduplicating cross-shard sightings by content hash — produces the
bit-identical corpus fingerprint AND bit-identical per-ad first-sight
verdicts of a serial streamed crawl, in both worker modes, at any worker
count, with exactly one oracle scan per unique creative.
"""

import pytest

from repro.core.persistence import (
    CrawlCheckpointer,
    corpus_fingerprint,
    load_crawl_checkpoint,
)
from repro.core.study import Study, StudyConfig
from repro.crawler.corpus import AdRecord, content_hash
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import (
    AttachedTicket,
    ScanService,
    ServiceConfig,
    StreamingCorpus,
    stream_crawl,
)

SEED = 7

# A small campaign pool (21 variants over ~96 impressions) so the same
# creatives recur across visits — and therefore across shards, which is
# what the cross-shard dedup assertions need to exercise.
PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2,
                     n_benign_campaigns=10, n_malicious_campaigns=4,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=2, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


def make_study(**overrides) -> Study:
    config = StudyConfig(**{**STUDY_CONFIG.__dict__, **overrides})
    return Study(config)


def make_service_config(**overrides) -> ServiceConfig:
    return ServiceConfig(**{
        "seed": SEED, "n_workers": 2, "world_params": PARAMS,
        "batch_max_size": 4, **overrides})


def resolve_all(tickets) -> dict:
    """Every ticket's verdict, keyed by corpus ad id.

    Verdicts are dataclasses, so dict equality below means bit-identity
    field by field — the differential guarantee under test.
    """
    return {ad_id: ticket.result(timeout=60)
            for ad_id, ticket in tickets.items()}


@pytest.fixture(scope="module")
def serial_streamed():
    """The serial streamed crawl every overlapped run must reproduce."""
    study = make_study()
    with ScanService(make_service_config()) as service:
        corpus, stats, tickets = stream_crawl(
            study.build_crawler(), study.build_schedule(), service)
        service.drain()
        verdicts = resolve_all(tickets)
        counters = service.stats()["counters"]
    assert counters["scanned"] == corpus.unique_ads
    return {
        "fingerprint": corpus_fingerprint(corpus),
        "stats": stats,
        "verdicts": verdicts,
        "unique_ads": corpus.unique_ads,
    }


class TestCrossShardDedup:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_overlapped_matches_serial_streamed(self, serial_streamed, mode,
                                                n_workers):
        study = make_study()
        crawler = study.build_parallel_crawler(workers=n_workers, mode=mode)
        with ScanService(make_service_config()) as service:
            corpus, stats, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = resolve_all(tickets)
            stats_snapshot = service.stats()
        counters = stats_snapshot["counters"]
        assert corpus_fingerprint(corpus) == serial_streamed["fingerprint"]
        assert stats == serial_streamed["stats"]
        assert verdicts == serial_streamed["verdicts"]
        # Exactly one oracle scan and one winning sighting per creative,
        # however many shards raced to submit it.
        assert counters["scanned"] == serial_streamed["unique_ads"]
        assert counters["first_sight_submissions"] == serial_streamed["unique_ads"]
        # The same creatives recur across shards (repeat visits of one
        # site land on different workers), so the dedup index must fire.
        assert counters["shard_dedup_hits"] >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_transient_chaos_with_retry_reconverges(self, serial_streamed,
                                                    mode):
        study = make_study(chaos_profile="transient", crawl_retries=1)
        crawler = study.build_parallel_crawler(workers=2, mode=mode)
        with ScanService(make_service_config()) as service:
            corpus, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = resolve_all(tickets)
            counters = service.stats()["counters"]
        # One retry clears every transient fault, so the corpus — and
        # therefore the first-sight verdicts — match the fault-free run
        # (crawl stats differ: the retries are counted there).
        assert corpus_fingerprint(corpus) == serial_streamed["fingerprint"]
        assert verdicts == serial_streamed["verdicts"]
        assert counters["scanned"] == serial_streamed["unique_ads"]


class TestOverlapAccounting:
    def test_overlap_metrics_nonzero(self, serial_streamed):
        study = make_study()
        crawler = study.build_parallel_crawler(workers=2, mode="thread")
        with ScanService(make_service_config()) as service:
            stream_crawl(crawler, study.build_schedule(), service)
            mid_crawl_scans = (
                service.stats()["counters"]["overlapped_scans"])
            service.drain()
            snapshot = service.stats()
        # Verdicts landed while the crawl was still running…
        assert mid_crawl_scans >= 1
        assert snapshot["counters"]["overlapped_scans"] == mid_crawl_scans
        # …the crawl registered itself for the overlap accounting…
        assert snapshot["gauge_peaks"]["active_crawls"] == 1
        assert snapshot["gauges"]["active_crawls"] == 0
        # …and every sighting's submission→verdict latency was recorded.
        histogram = snapshot["histograms"]["first_sight_latency"]
        assert histogram["count"] == serial_streamed["unique_ads"]
        assert snapshot["queue"]["high_water"] >= 1


class TestStreamedCheckpointResume:
    def test_resume_does_not_double_submit(self, serial_streamed, tmp_path):
        path = str(tmp_path / "stream.ckpt")
        study = make_study()
        schedule = study.build_schedule()
        stop_after = len(schedule) // 2
        assert 0 < stop_after < len(schedule)

        class _CrawlerDied(Exception):
            pass

        checkpointer = CrawlCheckpointer(path, every=1)

        def dying_progress(visit_index, corpus, stats):
            checkpointer(visit_index, corpus, stats)
            if visit_index + 1 >= stop_after:
                raise _CrawlerDied()

        with ScanService(make_service_config()) as service:
            with pytest.raises(_CrawlerDied):
                stream_crawl(study.build_crawler(), schedule, service,
                             progress=dying_progress)
            service.drain()
            mid_counters = dict(service.stats()["counters"])

            cursor, plain_corpus, stats = load_crawl_checkpoint(path)
            seeded_ids = {record.ad_id for record in plain_corpus.records()}
            assert seeded_ids  # the dead crawl saw (and ticketed) ads
            corpus = StreamingCorpus.resume(service, plain_corpus)
            corpus, stats, tickets = stream_crawl(
                make_study().build_crawler(), schedule, service,
                corpus=corpus, stats=stats, start_at=cursor)
            service.drain()
            verdicts = resolve_all(tickets)
            counters = service.stats()["counters"]

        assert corpus_fingerprint(corpus) == serial_streamed["fingerprint"]
        # Already-ticketed creatives were seeded, not re-submitted: the
        # resumed run only minted tickets for creatives first seen after
        # the checkpoint, and the per-creative totals never doubled.
        assert set(tickets).isdisjoint(seeded_ids)
        assert set(tickets) | seeded_ids == set(serial_streamed["verdicts"])
        assert counters["first_sight_submissions"] == serial_streamed["unique_ads"]
        assert counters["submitted"] == serial_streamed["unique_ads"]
        assert counters["scanned"] == serial_streamed["unique_ads"]
        assert counters["shard_dedup_hits"] == mid_counters["shard_dedup_hits"]
        for ad_id, verdict in verdicts.items():
            assert verdict == serial_streamed["verdicts"][ad_id]


class TestSightingPrimitives:
    HTML = "<html><body><a href='http://x.example/lp'>x</a></body></html>"

    def test_sight_dedups_by_content(self):
        with ScanService(make_service_config()) as service:
            first = service.sight(self.HTML)
            second = service.sight(self.HTML)
            assert second is first
            assert first.result(timeout=60) == second.result(timeout=60)
            counters = service.stats()["counters"]
            assert counters["first_sight_submissions"] == 1
            assert counters["shard_dedup_hits"] == 1
            assert counters["scanned"] == 1

    def test_adopt_sighting_relabels_verdict(self):
        record = AdRecord(ad_id="ad-000042",
                          content_hash=content_hash(self.HTML),
                          html=self.HTML, first_seen_url="")
        with ScanService(make_service_config()) as service:
            primary = service.sight(self.HTML)
            attached = service.adopt_sighting(record)
            assert isinstance(attached, AttachedTicket)
            assert attached.content_hash == primary.content_hash
            adopted = attached.result(timeout=60)
            original = primary.result(timeout=60)
            assert adopted.ad_id == "ad-000042"
            assert original.ad_id != "ad-000042"
            # Same bits apart from the label.
            import dataclasses
            assert adopted == dataclasses.replace(original, ad_id="ad-000042")
            # Adoption re-keys; it is not a cross-shard dedup hit.
            counters = service.stats()["counters"]
            assert counters["shard_dedup_hits"] == 0
            assert counters["first_sight_submissions"] == 1

    def test_adopt_without_prior_sighting_sights_now(self):
        record = AdRecord(ad_id="ad-000001",
                          content_hash=content_hash(self.HTML),
                          html=self.HTML, first_seen_url="")
        with ScanService(make_service_config()) as service:
            attached = service.adopt_sighting(record)
            assert attached.result(timeout=60).ad_id == "ad-000001"
            counters = service.stats()["counters"]
            assert counters["first_sight_submissions"] == 1
            assert counters["scanned"] == 1

    def test_stream_crawl_rejects_plain_corpus(self):
        from repro.crawler.corpus import AdCorpus

        study = make_study()
        with ScanService(make_service_config()) as service:
            with pytest.raises(TypeError):
                stream_crawl(study.build_crawler(), study.build_schedule(),
                             service, corpus=AdCorpus())
