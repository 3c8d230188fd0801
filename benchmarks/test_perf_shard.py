"""Perf: shard-indexed store open vs the per-entry directory walk.

Tracks what the per-shard index files buy at suite scale:
``SuiteFrame.open_dir`` over a depth-2 store of ``REPRO_SHARD_N``
synthetic summaries (default 20k locally; CI's benchmark smoke runs 100k)
must open >= 5x faster through the warm index than through the per-entry
walk (one read/parse round trip per entry).  Warm and walk opens run as
interleaved pairs and each side keeps its best of :data:`PAIRS`, so a
background hiccup during one shot cannot decide the ratio.  Both paths
must produce identical frames -- the index is a read-path accelerator,
never a second source of truth.  The artifact records the measured
numbers so the perf trajectory is visible across PRs.
"""

import hashlib
import json
import os
import time

import numpy as np

from conftest import save_artifact
from repro.analysis.suite import SuiteFrame
from repro.runner import ResultCache

#: Synthetic store size; CI's benchmark smoke raises this to 100000.
N_ENTRIES = int(os.environ.get("REPRO_SHARD_N", "20000") or "20000")

FLOOR = 5.0

#: Interleaved warm/walk pairs; each side keeps its fastest run.
PAIRS = 3


def _populate(root, n):
    """Write ``n`` minimal summaries straight into the depth-2 layout.

    Blobs are omitted on purpose: ``SuiteFrame`` opens summaries eagerly
    and traces lazily, so the open path under measurement never touches
    them.  Keys are sha256 digests (the real key alphabet), so entries
    spread over the shard fan-out exactly like production content keys.
    """
    keys = []
    for i in range(n):
        key = hashlib.sha256(b"shard-bench-%d" % i).hexdigest()
        payload = {
            "artifact": 2,
            "benchmark": "synthetic-%d" % (i % 7),
            "mode": "without_fan" if i % 2 else "with_fan",
            "completed": True,
            "execution_time_s": 10.0 + i % 13,
            "average_platform_power_w": 4.0 + (i % 11) / 10.0,
            "energy_j": 40.0 + i % 17,
            "interventions": i % 3,
            "violations_predicted": 0,
            "cluster_migrations": 0,
            "cores_offlined": 0,
            "notes": [],
            "trace": {"columns": ["time_s", "max_temp_c"], "length": 0},
        }
        entry_dir = os.path.join(root, key[:2], key[2:4])
        os.makedirs(entry_dir, exist_ok=True)
        with open(os.path.join(entry_dir, key + ".json"), "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        keys.append(key)
    return sorted(keys)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def test_pack_indexed_open_dir_is_5x_faster(tmp_path):
    root = str(tmp_path / "store")
    keys = _populate(root, N_ENTRIES)

    # cold open builds and persists the per-shard index files (charged
    # once, amortised over every later open -- measured for the record)
    cold_s, cold = _timed(lambda: SuiteFrame.open_dir(root))
    assert cold.keys == keys

    warm_runs, walk_runs = [], []
    for _ in range(PAIRS):
        warm_s, warm = _timed(lambda: SuiteFrame.open_dir(root))
        walk_s, walk = _timed(
            lambda: SuiteFrame.open_dir(root, use_index=False)
        )
        warm_runs.append(warm_s)
        walk_runs.append(walk_s)
    warm_s, walk_s = min(warm_runs), min(walk_runs)

    # identical frames either way: the index only changes the read cost
    assert warm.keys == walk.keys == keys
    assert np.array_equal(
        warm.column("average_platform_power_w"),
        walk.column("average_platform_power_w"),
    )
    assert np.array_equal(warm.column("completed"), walk.column("completed"))

    # one index file per shard really carries the warm path
    index_dir = os.path.join(root, ".index")
    assert sorted(os.listdir(index_dir)) == sorted(
        {key[:2] + ".json" for key in keys}
    )
    assert len(ResultCache(root=root, memory=False).indexed_summaries()) == (
        N_ENTRIES
    )

    speedup = walk_s / warm_s
    save_artifact(
        "perf_shard.txt",
        "SuiteFrame.open_dir over %d summaries (depth-2 sharded store)\n"
        "cold (walk + build index):  %8.2f s\n"
        "warm (shard index):         %8.2f s  (best of %d)\n"
        "per-entry walk:             %8.2f s  (best of %d)\n"
        "warm speedup vs walk: %.1fx (floor %.0fx)"
        % (N_ENTRIES, cold_s, warm_s, PAIRS, walk_s, PAIRS, speedup, FLOOR),
    )
    assert speedup >= FLOOR, (
        "shard-indexed open only %.1fx faster than the per-entry walk"
        % speedup
    )
