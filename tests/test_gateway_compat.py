"""The gateway-free path is bit-identical to the pre-gateway service.

The gateway PR threaded tenant attribution through ``ScanService`` —
``submit(..., tenant=)``, ``ScanTask.tenant``, ``DeadLetter.tenant`` —
so this module pins the promise that came with it: a direct caller who
never touches :mod:`repro.gateway` gets exactly the bytes the seed
produced.  The golden fingerprints below were computed on the seed tree
*before* any gateway code landed; a streamed crawl+scan must reproduce
both, serially and at 4 crawl workers in thread and fork modes.
"""

import hashlib
import json

import pytest

from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig, stream_crawl

# Computed on the seed commit (pre-gateway), serial == thread4 == fork4.
GOLDEN_CORPUS = \
    "8f4a9085613330fd5b418ac25381a6874b4e556026b69473b8c845495fc1cb0f"
GOLDEN_VERDICTS = \
    "5a89d612030e36ab3aff452d9e4c45af2005b2a730673622b79394cc87dfc04f"

PARAMS = WorldParams(n_top_sites=8, n_bottom_sites=8, n_other_sites=8,
                     n_feed_sites=2, n_benign_campaigns=10,
                     n_malicious_campaigns=4, variants_per_benign=2,
                     variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=2014, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = [("serial", 1, None), ("thread", 4, "thread")]
if fork_available():
    MODES.append(("fork", 4, "process"))


def run_streamed(workers: int, mode) -> tuple[str, str]:
    """One crawl+scan with no gateway anywhere; both fingerprints."""
    study = Study(STUDY_CONFIG)
    config = ServiceConfig(seed=2014, n_workers=2, world_params=PARAMS)
    with ScanService(config) as service:
        if workers == 1:
            crawler = study.build_crawler()
        else:
            crawler = study.build_parallel_crawler(workers=workers, mode=mode)
        corpus, stats, tickets = stream_crawl(
            crawler, study.build_schedule(), service)
        service.drain()
        verdicts = {ad_id: verdict_fingerprint(ticket.result(timeout=120))
                    for ad_id, ticket in tickets.items()}
    digest = hashlib.sha256(
        json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    return corpus_fingerprint(corpus), digest


@pytest.mark.parametrize("label,workers,mode", MODES,
                         ids=[m[0] for m in MODES])
def test_gateway_free_path_matches_seed_fingerprints(label, workers, mode):
    corpus_fp, verdict_fp = run_streamed(workers, mode)
    assert corpus_fp == GOLDEN_CORPUS
    assert verdict_fp == GOLDEN_VERDICTS


def test_direct_submission_carries_no_tenant_attribution():
    """Without a gateway, nothing is tenant-labelled — not tickets, not
    metrics — so the attribution plumbing is provably inert."""
    study = Study(StudyConfig(seed=7, days=1, refreshes_per_visit=1,
                              world_params=WorldParams(
                                  n_top_sites=6, n_bottom_sites=6,
                                  n_other_sites=6, n_feed_sites=2)))
    corpus = study.crawl().corpus
    config = ServiceConfig(seed=7, n_workers=2,
                           world_params=study.config.world_params)
    with ScanService(config) as service:
        tickets = [service.submit(r) for r in corpus.records()[:5]]
        service.drain()
        for ticket in tickets:
            assert ticket.tenant is None
            ticket.result(timeout=60)
        snapshot = service.metrics.snapshot()
    assert not any(name.startswith("tenant.")
                   for name in snapshot["counters"])
    assert not any(name.startswith("gateway_")
                   for name in snapshot["counters"])
