"""Fast-open differentials: sidecar trust rules and tampering fallback.

The sidecar fast path may only ever be an *optimization*: a clean store
must open without replaying a single segment, and any anomaly — a
sidecar missing, truncated, bit-flipped, stale, an open segment, a
leftover tmp file, or a writer killed mid-append (reusing the
kill-points of :mod:`tests.test_store_recovery`) — must silently fall
back to the full replay with **zero index divergence**: identical
fingerprint, identical keys, identical per-record index rows.  A replay
open also heals the damaged sidecars, so the *next* clean open is fast
again.

The pipeline differential at the bottom proves the same property under
the service: a store written by a streamed crawl+scan at (1, serial)
and (4, thread/fork) crawl workers reopens bit-identically on both the
fast and the replay path.
"""

import os
import shutil

import pytest

from repro.chaos import ChaosFileSystem, FaultPlan
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig, stream_crawl
from repro.store import (
    OPEN_SUFFIX,
    SEALED_SUFFIX,
    SIDECAR_SUFFIX,
    TMP_SUFFIX,
    StoreConfig,
    VerdictStore,
    decode_sidecar,
    encode_sidecar,
    sidecar_path,
)

from tests.test_store import content_key, make_verdict
from tests.test_store_recovery import DOOMED_PLAN

CONFIG = StoreConfig(n_shards=2, segment_max_records=4)

MODES = ["thread"] + (["process"] if fork_available() else [])

PIPELINE_SHAPES = [(1, "thread")] + [(4, mode) for mode in MODES]


def open_store(root, fast_open=True):
    return VerdictStore(root, StoreConfig(
        n_shards=CONFIG.n_shards,
        segment_max_records=CONFIG.segment_max_records,
        fast_open=fast_open))


def populate(root, n=40):
    store = open_store(root)
    try:
        for i in range(n):
            store.put(content_key(i), make_verdict(i))
    finally:
        store.close()


def index_snapshot(store):
    """Every index row, segment identity included — divergence detector."""
    return {
        key: (os.path.basename(entry.segment.path), entry.offset,
              entry.length, entry.seq, entry.checksum)
        for key, entry in store._index.items()}


def open_and_snapshot(root, fast_open=True):
    store = open_store(root, fast_open=fast_open)
    try:
        return {
            "recovery": store.recovery.to_dict(),
            "fingerprint": store.fingerprint(),
            "index": index_snapshot(store),
            "keys": sorted(store.keys()),
        }
    finally:
        store.close()


def sidecars_of(root):
    out = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(SIDECAR_SUFFIX):
                out.append(os.path.join(dirpath, name))
    return out


@pytest.fixture
def sealed_root(tmp_path):
    root = tmp_path / "vs"
    populate(root)
    return root


@pytest.fixture
def replay_truth(sealed_root):
    """What a full replay of the sealed store materialises."""
    truth = open_and_snapshot(sealed_root, fast_open=False)
    assert truth["recovery"]["fast_open"] == 0
    assert truth["recovery"]["segments_scanned"] > 0
    return truth


def assert_matches_truth(snap, truth):
    assert snap["fingerprint"] == truth["fingerprint"]
    assert snap["keys"] == truth["keys"]
    assert snap["index"] == truth["index"]


class TestCleanFastOpen:
    def test_clean_open_loads_sidecars_not_segments(self, sealed_root,
                                                    replay_truth):
        snap = open_and_snapshot(sealed_root)
        assert snap["recovery"]["fast_open"] == 1
        assert snap["recovery"]["segments_scanned"] == 0
        assert snap["recovery"]["sidecars_used"] == len(
            sidecars_of(sealed_root))
        assert snap["recovery"]["sidecars_used"] > 0
        assert_matches_truth(snap, replay_truth)

    def test_fast_open_store_serves_reads_and_bloom(self, sealed_root):
        store = open_store(sealed_root)
        try:
            for i in range(40):
                verdict = store.get(content_key(i))
                assert verdict is not None
                assert verdict.ad_id == f"ad-{i:04d}"
            assert store.get("f" * 64) is None
            assert store.stats()["bloom"]["negatives"] >= 1
        finally:
            store.close()

    def test_config_off_forces_replay(self, sealed_root):
        snap = open_and_snapshot(sealed_root, fast_open=False)
        assert snap["recovery"]["fast_open"] == 0
        assert snap["recovery"]["sidecars_used"] == 0


def _tamper_missing(path):
    os.remove(path)


def _tamper_truncated(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


def _tamper_bitflip(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] ^= 0x40  # inside the canonical body line
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _tamper_stale(path):
    # A structurally valid sidecar whose header describes a different
    # sealed file: the canonical "crashed between segment rewrite and
    # sidecar rewrite" shape.  Checksums pass; the seal comparison must
    # not.
    with open(path, "rb") as fh:
        side = decode_sidecar(fh.read())
    with open(path, "wb") as fh:
        fh.write(encode_sidecar(
            side["segment"], side["segment_bytes"] + 1, "0" * 16,
            side["records"], side["bloom"],
            side["bloom_bits"], side["bloom_hashes"]))


TAMPERS = {
    "missing": _tamper_missing,
    "truncated": _tamper_truncated,
    "bitflip": _tamper_bitflip,
    "stale": _tamper_stale,
}


class TestSidecarTampering:
    @pytest.mark.parametrize("kind", sorted(TAMPERS))
    def test_tampered_sidecar_falls_back_with_zero_divergence(
            self, sealed_root, replay_truth, kind):
        victim = sidecars_of(sealed_root)[1]
        TAMPERS[kind](victim)
        snap = open_and_snapshot(sealed_root)
        assert snap["recovery"]["fast_open"] == 0
        assert snap["recovery"]["segments_scanned"] > 0
        assert snap["recovery"]["sidecars_used"] == 0
        assert_matches_truth(snap, replay_truth)
        # The replay healed the damage: the next clean open is fast again.
        assert snap["recovery"]["sidecars_healed"] >= 1
        again = open_and_snapshot(sealed_root)
        assert again["recovery"]["fast_open"] == 1
        assert_matches_truth(again, replay_truth)

    def test_all_sidecars_deleted_falls_back_and_reheals(
            self, sealed_root, replay_truth):
        for path in sidecars_of(sealed_root):
            os.remove(path)
        snap = open_and_snapshot(sealed_root)
        assert snap["recovery"]["fast_open"] == 0
        assert_matches_truth(snap, replay_truth)
        assert len(sidecars_of(sealed_root)) == snap["recovery"][
            "sidecars_healed"]
        again = open_and_snapshot(sealed_root)
        assert again["recovery"]["fast_open"] == 1

    def test_leftover_tmp_file_disqualifies_fast_open(self, sealed_root,
                                                      replay_truth):
        shard_dir = os.path.dirname(sidecars_of(sealed_root)[0])
        with open(os.path.join(shard_dir, "junk" + TMP_SUFFIX), "wb") as fh:
            fh.write(b"half-written")
        snap = open_and_snapshot(sealed_root)
        assert snap["recovery"]["fast_open"] == 0
        assert snap["recovery"]["tmp_cleaned"] >= 1
        assert_matches_truth(snap, replay_truth)

    def test_open_segment_disqualifies_fast_open(self, tmp_path):
        # A store abandoned with an active (.open) segment fails the
        # clean-shutdown precondition, so the open must replay.  Each
        # open mutates the directory (resume + seal on close), so the
        # fast and replay paths each get an identical copy of the dirty
        # tree to open.
        root = tmp_path / "vs"
        store = open_store(root)
        for i in range(41):
            store.put(content_key(i), make_verdict(i))
        assert any(
            name.endswith(OPEN_SUFFIX)
            for _, _, names in os.walk(root) for name in names)
        store._closed = True  # abandon without sealing (simulated kill)
        copy = tmp_path / "vs-copy"
        shutil.copytree(root, copy)
        snap = open_and_snapshot(root)
        truth = open_and_snapshot(copy, fast_open=False)
        assert snap["recovery"]["fast_open"] == 0
        assert_matches_truth(snap, truth)


class TestCrashKillPoints:
    def test_crashed_writer_replays_then_next_open_is_fast(self, tmp_path):
        # Reuse the recovery suite's kill-point: an fsync lies mid-append
        # and the writer dies at that instant; the power cut truncates
        # the un-fsynced tail.  Fast open must refuse (open segment +
        # torn tail) and the healed store must fast-open afterwards.
        root = tmp_path / "vs"
        fs = ChaosFileSystem(FaultPlan(**DOOMED_PLAN))
        store = VerdictStore(
            root, StoreConfig(n_shards=2, segment_max_records=4,
                              fsync_every=1), fs=fs)
        for i in range(200):
            store.put(content_key(i), make_verdict(i))
            exposed = {path: n for path, n in fs.at_risk().items()
                       if path.endswith((OPEN_SUFFIX, SEALED_SUFFIX))}
            if exposed:
                break
        assert exposed, "the chaos plan should have made an fsync lie"
        fs.simulate_crash()

        copy = tmp_path / "vs-copy"
        shutil.copytree(root, copy)
        snap = open_and_snapshot(root)
        crash_truth = open_and_snapshot(copy, fast_open=False)
        assert snap["recovery"]["fast_open"] == 0
        assert snap["recovery"]["truncated_tails"] >= 1
        assert snap["recovery"]["truncated_tails"] == crash_truth[
            "recovery"]["truncated_tails"]
        assert_matches_truth(snap, crash_truth)
        # The first open resumed the torn segment and its close sealed
        # it (sidecar included): the next open of the same dir is fast,
        # with the identical logical contents.
        again = open_and_snapshot(root)
        assert again["recovery"]["fast_open"] == 1
        assert again["fingerprint"] == crash_truth["fingerprint"]
        assert again["keys"] == crash_truth["keys"]


class TestFsckSidecars:
    def test_fsck_counts_every_sidecar_condition(self, sealed_root):
        store = open_store(sealed_root)
        try:
            clean = store.fsck()
            assert clean.clean
            assert clean.sidecars_ok == len(sidecars_of(sealed_root))
            assert clean.sidecars_missing == 0
            assert clean.sidecars_stale == 0
            assert clean.sidecars_corrupt == 0
            # Tamper behind the live store's back: fsck reads the disk.
            paths = sidecars_of(sealed_root)
            assert len(paths) >= 3
            os.remove(paths[0])
            _tamper_bitflip(paths[1])
            _tamper_stale(paths[2])
            report = store.fsck()
            assert report.sidecars_missing == 1
            assert report.sidecars_corrupt == 1
            assert report.sidecars_stale == 1
            assert report.sidecars_ok == len(paths) - 3
            assert any("sidecar" in problem for problem in report.problems)
            # Sidecar damage only slows the next open; the records are
            # intact, so the store itself is still clean.
            assert report.clean
        finally:
            store.close()


class TestCompactionSidecars:
    def test_compaction_rewrites_sidecars_and_keeps_fast_open(self, tmp_path):
        root = tmp_path / "vs"
        store = open_store(root)
        try:
            for i in range(40):
                store.put(content_key(i), make_verdict(i))
            for i in range(0, 40, 2):  # supersede half: garbage to fold
                store.put(content_key(i), make_verdict(i + 1000))
            store.compact()
            fingerprint = store.fingerprint()
            # Every surviving sealed segment carries a sidecar; none of
            # the folded segments left one behind.
            sealed = {
                os.path.join(dirpath, name)
                for dirpath, _, names in os.walk(root)
                for name in names if name.endswith(SEALED_SUFFIX)}
            assert {sidecar_path(p) for p in sealed} == set(
                sidecars_of(root))
        finally:
            store.close()
        snap = open_and_snapshot(root)
        assert snap["recovery"]["fast_open"] == 1
        assert snap["fingerprint"] == fingerprint
        replay = open_and_snapshot(root, fast_open=False)
        assert_matches_truth(snap, replay)


SEED = 11

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2,
                     n_benign_campaigns=8, n_malicious_campaigns=3,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)


class TestPipelineFastOpenDifferential:
    @pytest.mark.parametrize(("crawl_workers", "mode"), PIPELINE_SHAPES)
    def test_store_written_by_pipeline_reopens_identically(
            self, tmp_path, crawl_workers, mode):
        root = tmp_path / "vs"
        study = Study(StudyConfig(**STUDY_CONFIG.__dict__))
        if crawl_workers == 1:
            crawler = study.build_crawler()
        else:
            crawler = study.build_parallel_crawler(workers=crawl_workers,
                                                   mode=mode)
        config = ServiceConfig(
            seed=SEED, n_workers=2, world_params=PARAMS,
            batch_max_size=4,
            store_path=root, store_config=StoreConfig(**vars(CONFIG)))
        with ScanService(config) as service:
            _, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            for ticket in tickets.values():
                ticket.result(timeout=120)
        fast = open_and_snapshot(root)
        replay = open_and_snapshot(root, fast_open=False)
        assert fast["recovery"]["fast_open"] == 1
        assert fast["recovery"]["segments_scanned"] == 0
        assert replay["recovery"]["fast_open"] == 0
        assert_matches_truth(fast, replay)
