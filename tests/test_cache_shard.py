"""Depth-2 store layout, blob compression, shard index, one-shot migration."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    disk_usage,
    migrate,
    prune,
    result_bytes,
    trace_blob_bytes,
)
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize


@pytest.fixture(scope="module")
def workload():
    return synthesize("medium", 12.0, threads=2, seed=3)


@pytest.fixture(scope="module")
def result(workload):
    return ParallelRunner().run_one(
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    )


@pytest.fixture(scope="module")
def results(workload):
    specs = [
        RunSpec(workload=synthesize("medium", 12.0, threads=2, seed=s),
                mode=ThermalMode.NO_FAN)
        for s in (3, 4, 5)
    ]
    return ParallelRunner().run(specs)


def _files(root):
    out = []
    for base, _dirs, names in os.walk(root):
        for name in names:
            out.append(os.path.relpath(os.path.join(base, name), root))
    return sorted(out)


def _entry(root, key, suffix):
    return os.path.join(str(root), key[:2], key[2:4], key + suffix)


def _flatten(root, key):
    """Move one entry up into the legacy flat ``<root>/<key[:2]>/`` layout."""
    deep = os.path.join(str(root), key[:2], key[2:4])
    for name in os.listdir(deep):
        os.replace(
            os.path.join(deep, name), os.path.join(str(root), key[:2], name)
        )
    os.rmdir(deep)


# ---------------------------------------------------------------------------
# shard depth
# ---------------------------------------------------------------------------
def test_put_writes_depth2_layout(tmp_path, result):
    key = "ab" * 32
    ResultCache(root=str(tmp_path)).put(key, result)
    ResultCache(root=str(tmp_path), fanout=2).put("ac" * 32, result)
    assert _files(tmp_path) == sorted([
        os.path.join(key[:2], key[2:4], key + ".json"),
        os.path.join(key[:2], key[2:4], key + ".npz"),
        os.path.join("ac", "ac", "ac" * 32 + ".json"),
        os.path.join("ac", "ac", "ac" * 32 + ".npz"),
    ])


def test_flat_entry_is_a_miss_until_migrated(tmp_path, result):
    key = "cd" * 32
    ResultCache(root=str(tmp_path)).put(key, result)
    _flatten(tmp_path, key)
    legacy = ResultCache(root=str(tmp_path), memory=False)
    assert key not in legacy
    assert legacy.get(key) is None
    assert legacy.keys() == []
    migrate(str(tmp_path))
    upgraded = ResultCache(root=str(tmp_path), memory=False)
    assert upgraded.keys() == [key]
    assert result_bytes(upgraded.get(key)) == result_bytes(result)


def test_fanout_validation(tmp_path):
    for fanout in (1, 3, None):
        with pytest.raises(ConfigurationError):
            ResultCache(root=str(tmp_path), fanout=fanout)
    assert ResultCache(root=str(tmp_path), fanout=2).root == str(tmp_path)


def test_layout_marker_ignores_garbage(tmp_path, result):
    """Marker files older stores left at the root change nothing."""
    key = "9a" * 32
    for marker in ("not json", json.dumps({"depth": 1})):
        (tmp_path / ".layout.json").write_text(marker)
        ResultCache(root=str(tmp_path)).put(key, result)
        assert os.path.exists(_entry(tmp_path, key, ".json"))
        reader = ResultCache(root=str(tmp_path), memory=False)
        assert reader.keys() == [key]
        assert result_bytes(reader.get(key)) == result_bytes(result)


# ---------------------------------------------------------------------------
# blob compression
# ---------------------------------------------------------------------------
def test_deflate_round_trip_is_byte_identical(tmp_path, result):
    key = "ef" * 32
    cache = ResultCache(root=str(tmp_path), compress="deflate")
    cache.put(key, result)
    blob = _entry(tmp_path, key, ".npz.z")
    assert os.path.exists(blob)
    assert os.path.getsize(blob) < len(trace_blob_bytes(result))
    reader = ResultCache(root=str(tmp_path), memory=False)
    assert result_bytes(reader.get(key)) == result_bytes(result)
    assert os.path.exists(blob)  # non-mmap reads decompress in memory


def test_mmap_read_rehydrates_compressed_blob(tmp_path, result):
    key = "0f" * 32
    ResultCache(root=str(tmp_path), compress="deflate").put(key, result)
    reader = ResultCache(root=str(tmp_path), memory=False, mmap=True)
    got = reader.get(key)
    assert result_bytes(got) == result_bytes(result)
    base = got.trace.array()
    while not isinstance(base, np.memmap) and getattr(base, "base", None) is not None:
        base = base.base
    assert isinstance(base, np.memmap)  # the trace really is file-backed
    # first touch replaced the compressed blob with the plain npz
    assert not os.path.exists(_entry(tmp_path, key, ".npz.z"))
    assert os.path.exists(_entry(tmp_path, key, ".npz"))
    again = ResultCache(root=str(tmp_path), memory=False, mmap=True)
    assert result_bytes(again.get(key)) == result_bytes(result)


def test_zstd_gated_when_package_missing(tmp_path):
    """zstd is not a codec of this store, package or not."""
    with pytest.raises(ConfigurationError):
        ResultCache(root=str(tmp_path), compress="zstd")
    with pytest.raises(ConfigurationError):
        migrate(str(tmp_path), compress="zstd")


def test_unknown_codec_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        ResultCache(root=str(tmp_path), compress="lz4")


# ---------------------------------------------------------------------------
# migration
# ---------------------------------------------------------------------------
def test_migrate_reshards_and_stays_byte_identical(tmp_path, results):
    root = str(tmp_path)
    cache = ResultCache(root=root)
    keys = ["%02x" % i * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
        _flatten(root, key)
    before = {k: result_bytes(cache.get(k)) for k in keys}  # memory layer
    stats = migrate(root, compress="deflate")
    assert stats.examined == len(keys)
    assert stats.moved == len(keys)
    assert stats.recompressed == len(keys)
    after = ResultCache(root=root, memory=False)
    assert after.keys() == sorted(keys)
    for key in keys:
        assert result_bytes(after.get(key)) == before[key]
        assert os.path.exists(_entry(root, key, ".npz.z"))
    # every old flat copy is gone
    for key in keys:
        assert not os.path.exists(os.path.join(root, key[:2], key + ".json"))
        assert not os.path.exists(os.path.join(root, key[:2], key + ".npz"))


def test_migrate_is_idempotent(tmp_path, result):
    root = str(tmp_path)
    ResultCache(root=root).put("aa" * 32, result)
    _flatten(root, "aa" * 32)
    first = migrate(root)
    files = _files(root)
    second = migrate(root)
    assert second.moved == 0 and second.cleaned == 0
    assert _files(root) == files
    assert first.moved == 1


def test_migrate_resumes_after_interruption(tmp_path, result):
    """A pass killed mid-way finishes on the next run."""
    root = str(tmp_path)
    key = "bc" * 32
    ResultCache(root=root).put(key, result)
    # an older copy-then-unlink pass died after committing the depth-2
    # copy: the flat copies are still there too
    for suffix in (".json", ".npz"):
        with open(_entry(root, key, suffix), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(root, key[:2], key + suffix), "wb") as fh:
            fh.write(blob)
    mid = ResultCache(root=root, memory=False)
    assert mid.keys() == [key]
    assert len(mid) == 1
    stats = migrate(root)
    assert stats.cleaned == 2  # the two leftover flat copies
    assert not os.path.exists(os.path.join(root, key[:2], key + ".json"))
    # this pass died after moving the blob down but before the summary
    other = "bd" * 32
    ResultCache(root=root).put(other, result)
    _flatten(root, other)
    os.makedirs(os.path.join(root, other[:2], other[2:4]))
    os.replace(
        os.path.join(root, other[:2], other + ".npz"),
        _entry(root, other, ".npz"),
    )
    assert ResultCache(root=root, memory=False).get(other) is None
    assert migrate(root).moved == 1
    done = ResultCache(root=root, memory=False)
    assert result_bytes(done.get(key)) == result_bytes(result)
    assert result_bytes(done.get(other)) == result_bytes(result)


def test_migrate_transcodes_back_to_plain(tmp_path, result):
    root = str(tmp_path)
    key = "de" * 32
    before = result_bytes(result)
    ResultCache(root=root, compress="deflate").put(key, result)
    stats = migrate(root, compress="none")
    assert stats.recompressed == 1
    assert os.path.exists(_entry(root, key, ".npz"))
    assert not os.path.exists(_entry(root, key, ".npz.z"))
    assert result_bytes(ResultCache(root=root, memory=False).get(key)) == before


def test_migrate_rejects_bad_fanout(tmp_path, result):
    """The store has one depth, so migrate takes no fanout at all."""
    from repro.cli import build_parser

    root = str(tmp_path)
    key = "d1" * 32
    ResultCache(root=root).put(key, result)
    _flatten(tmp_path, key)
    before = _files(tmp_path)
    for fanout in (1, 2, 3):
        with pytest.raises(TypeError):
            migrate(root, fanout=fanout)  # type: ignore[call-arg]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "migrate", "--cache-dir", root,
                 "--fanout", str(fanout)]
            )
    assert _files(tmp_path) == before  # rejected before touching the store


# ---------------------------------------------------------------------------
# shard index
# ---------------------------------------------------------------------------
def test_indexed_summaries_match_directory_walk(tmp_path, results):
    cache = ResultCache(root=str(tmp_path), fanout=2)
    keys = ["%02x" % (16 * i) * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    walked = list(cache.iter_summaries())
    indexed = cache.indexed_summaries()
    assert indexed == walked
    # one index file per shard, nothing else
    assert sorted(os.listdir(tmp_path / ".index")) == sorted(
        key[:2] + ".json" for key in keys
    )
    # warm path: the index files answer without rescanning, same rows
    assert cache.indexed_summaries() == walked


def test_pack_index_invalidates_on_writes_and_prune(tmp_path, results):
    root = str(tmp_path)
    cache = ResultCache(root=root, fanout=2)
    key_a = "11" * 32
    key_b = "11" + "ab" * 31  # same top-level shard, new depth-2 subdir
    cache.put(key_a, results[0])
    assert len(cache.indexed_summaries()) == 1
    cache.put(key_b, results[1])
    assert {k for k, _ in cache.indexed_summaries()} == {key_a, key_b}
    prune(root, max_bytes=None)
    assert cache.indexed_summaries() == []


def test_suiteframe_open_dir_same_with_and_without_index(tmp_path, results):
    from repro.analysis.suite import SuiteFrame

    cache = ResultCache(root=str(tmp_path), fanout=2, compress="deflate")
    keys = ["%02x" % (7 * i + 1) * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    # a malformed summary is skipped by both paths alike
    bad = keys[0][:2] + "ff" * 31
    os.makedirs(os.path.dirname(_entry(tmp_path, bad, ".json")))
    with open(_entry(tmp_path, bad, ".json"), "w") as fh:
        json.dump({"artifact": 2, "benchmark": "x"}, fh)
    fast = SuiteFrame.open_dir(str(tmp_path))
    slow = SuiteFrame.open_dir(str(tmp_path), use_index=False)
    assert fast.keys == slow.keys == sorted(keys)
    for field in ("execution_time_s", "average_platform_power_w"):
        assert fast.column(field).tolist() == slow.column(field).tolist()
    for i in range(len(fast)):
        assert np.array_equal(fast.trace(i), slow.trace(i))


def test_disk_usage_counts_compressed_blobs(tmp_path, result):
    cache = ResultCache(root=str(tmp_path), fanout=2, compress="deflate")
    cache.put("21" * 32, result)
    usage = disk_usage(str(tmp_path))
    assert usage.entries == 1
    assert usage.compressed_blobs == 1


def test_shadowed_blob_variant_is_counted_and_pruned(tmp_path, result):
    """A rehydrate that died between its write and its unlink leaves both
    ``.npz`` and ``.npz.z`` behind; the unread copy is stray debris."""
    root = str(tmp_path)
    key = "41" * 32
    ResultCache(root=root, compress="deflate").put(key, result)
    shadowed = _entry(root, key, ".npz.z")
    with open(_entry(root, key, ".npz"), "wb") as fh:
        fh.write(trace_blob_bytes(result))
    usage = disk_usage(root)
    assert usage.entries == 1 and usage.orphan_blobs == 1
    assert usage.blob_bytes == (
        len(trace_blob_bytes(result)) + os.path.getsize(shadowed)
    )
    # fresh: may belong to an in-flight writer, left alone
    assert prune(root, max_bytes=10**9) == (0, 0)
    stale = os.path.getmtime(shadowed) - 3600.0
    os.utime(shadowed, (stale, stale))
    size = os.path.getsize(shadowed)
    assert prune(root, max_bytes=10**9) == (1, size)
    assert not os.path.exists(shadowed)
    assert disk_usage(root).orphan_blobs == 0
    reader = ResultCache(root=root, memory=False)
    assert result_bytes(reader.get(key)) == result_bytes(result)


def test_prune_leaves_flat_entries_to_migrate(tmp_path, result):
    root = str(tmp_path)
    ResultCache(root=root).put("31" * 32, result)
    _flatten(root, "31" * 32)
    ResultCache(root=root).put("32" * 32, result)
    removed, freed = prune(root, max_bytes=None)
    assert removed == 1
    assert freed > 0
    assert ResultCache(root=root, memory=False).keys() == []
    migrate(root)
    assert ResultCache(root=root, memory=False).keys() == ["31" * 32]
