"""Content-addressed result cache for closed-loop runs.

Entries live under ``<root>/<key[:2]>/<key[2:4]>/`` (65536 fan-out
directories, so ~100k+ run stores stay cheap to list) where ``key`` is
the :func:`repro.runner.spec.spec_key` of the experiment.  Each entry is
a small ``<key>.json`` *summary* (scalars + ``"artifact": 2`` + trace
shape) next to a ``<key>.npz`` binary trace blob -- the blob is written
first and the summary last, so the summary is the commit point.  The
blob stores the ``(rows, columns)`` float64 matrix uncompressed, so
loading is a single binary read (or a memory map via ``mmap=True``) and
the round trip is numerically exact by construction.

``compress="deflate"`` stores new trace blobs through stdlib zlib as
``<key>.npz.z``.  Compression never changes a result: the blob
decompresses to the exact npz bytes an uncompressed store would hold.
Memory-mapped readers *rehydrate* a compressed blob on first touch --
decompress to the uncompressed ``.npz`` beside the summary, drop the
compressed file, then map -- so ``mmap=True`` keeps its lazy-pages
property at the cost of one write per first touch.

Bulk readers (:meth:`ResultCache.frame_chunks`, feeding
``SuiteFrame.open_dir``, and :meth:`ResultCache.indexed_summaries`) ride
one columnar *index file* per top-level shard at
``<root>/.index/<shard>.json``, holding every summary field of the shard
and validated against the shard directories' mtimes -- a warm
100k-entry store opens with ~256 reads instead of ~100k.

Stores written before the depth-2 layout kept entries directly under
``<root>/<key[:2]>/``.  Those entries read as misses (never as wrong
results) until ``repro-dtpm cache migrate`` moves them down; :func:`migrate`
is the only code that knows that layout.

The whole-result JSON rendering (:func:`result_bytes`) is the canonical
*byte-identity* unit: deterministic (sorted keys, repr-round-tripped
floats), so two equal :class:`RunResult` objects serialise to
byte-identical payloads -- which is also how the test-suite checks
serial, parallel, distributed and cached execution agree.

A cache without a root directory is an in-process memo (used by the
benchmark harness when ``REPRO_CACHE_DIR`` is unset); with a root it
persists across processes and CI jobs.  Writes are atomic (temp file +
``os.replace``) so concurrent writers at worst waste a little work.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import struct
import tempfile
import threading
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.run_result import RunResult, TraceRecorder

#: Environment variable pointing the default cache at a shared directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Version tag of the on-disk artifact layout written by this code.
ARTIFACT_FORMAT = 2

#: Suffix of the binary trace blob sitting next to a summary.
TRACE_BLOB_SUFFIX = ".npz"

#: Suffix of a deflate-compressed trace blob.
COMPRESSED_SUFFIX = ".npz.z"

#: Every suffix a trace blob may carry, in read-preference order.
BLOB_SUFFIXES: Tuple[str, str] = (TRACE_BLOB_SUFFIX, COMPRESSED_SUFFIX)

#: Name of the trace matrix inside the npz container.
TRACE_MEMBER = "data"

#: Directory (under the root) holding the per-shard index files.
INDEX_DIR = ".index"

#: Version tag of the per-shard index file payload.
INDEX_FORMAT = 1

#: Scalar summary fields analytics gathers into float64 columns.
SUMMARY_FLOAT_FIELDS: Tuple[str, ...] = (
    "execution_time_s",
    "average_platform_power_w",
    "energy_j",
)

#: Counter summary fields analytics gathers into int64 columns.
SUMMARY_COUNT_FIELDS: Tuple[str, ...] = (
    "interventions",
    "violations_predicted",
    "cluster_migrations",
    "cores_offlined",
)

#: Every scalar field of a result: summary payload keys, RunResult
#: constructor arguments and per-row lists of an index file alike.
_PAYLOAD_FIELDS: Tuple[str, ...] = (
    ("benchmark", "mode", "completed")
    + SUMMARY_FLOAT_FIELDS
    + SUMMARY_COUNT_FIELDS
)


def summary_row(payload: dict) -> Optional[tuple]:
    """One summary payload as frame-row fields, or None if malformed.

    The single extraction rule shared by :class:`SuiteFrame`'s row loop
    and the per-shard index files, so both open paths keep or skip
    exactly the same entries.  Only current-artifact summaries with a
    trace length and string lists of notes and trace columns qualify.
    Returns ``(floats, counts, benchmark, mode, completed,
    trace_columns)``.
    """
    try:
        if payload["artifact"] != ARTIFACT_FORMAT:
            return None
        notes = payload["notes"]
        columns = list(payload["trace"]["columns"])
        if not isinstance(notes, list) or not all(
            isinstance(text, str) for text in notes + columns
        ):
            return None
        int(payload["trace"]["length"])
        return (
            [float(payload[f]) for f in SUMMARY_FLOAT_FIELDS],
            [int(payload[f]) for f in SUMMARY_COUNT_FIELDS],
            payload["benchmark"],
            payload["mode"],
            bool(payload["completed"]),
            columns,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _scalar_payload(result: RunResult) -> dict:
    """Every summary field of a result except the trace."""
    payload = {name: getattr(result, name) for name in _PAYLOAD_FIELDS}
    payload["notes"] = list(result.notes)
    return payload


def result_to_payload(result: RunResult) -> dict:
    """Serialise a RunResult to a JSON-able payload (lossless for floats)."""
    payload = _scalar_payload(result)
    payload["trace"] = {
        "columns": result.trace.columns,
        "rows": result.trace.array().tolist(),
    }
    return payload


def payload_bytes(payload: dict) -> bytes:
    """Canonical byte rendering (the unit of byte-identity comparisons)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def result_bytes(result: RunResult) -> bytes:
    """Canonical byte rendering of a result."""
    return payload_bytes(result_to_payload(result))


# ---------------------------------------------------------------------------
# artifacts: summary JSON + binary trace blob
# ---------------------------------------------------------------------------
def result_to_summary(result: RunResult) -> dict:
    """The summary payload: everything except the trace rows."""
    payload = _scalar_payload(result)
    payload["artifact"] = ARTIFACT_FORMAT
    payload["trace"] = {
        "columns": result.trace.columns,
        "length": len(result.trace),
    }
    return payload


def summary_to_result(payload: dict, trace_data: np.ndarray) -> RunResult:
    """Rebuild a RunResult from a summary and its trace matrix."""
    meta = payload["trace"]
    if trace_data.shape != (int(meta["length"]), len(meta["columns"])):
        raise SimulationError(
            "trace blob shape %s does not match summary %s x %d"
            % (trace_data.shape, meta["length"], len(meta["columns"]))
        )
    return RunResult(
        trace=TraceRecorder.from_array(meta["columns"], trace_data),
        notes=list(payload["notes"]),
        **{name: payload[name] for name in _PAYLOAD_FIELDS},
    )


def trace_blob_bytes(result: RunResult) -> bytes:
    """The uncompressed npz rendering of a result's trace matrix."""
    buf = io.BytesIO()
    np.savez(buf, **{TRACE_MEMBER: result.trace.array()})
    return buf.getvalue()


def _check_codec(codec: Optional[str]) -> None:
    if codec not in (None, "deflate"):
        raise ConfigurationError(
            "unknown blob codec %r (the only codec is 'deflate')" % (codec,)
        )


def _blob_key(name: str) -> Optional[str]:
    """The entry key a blob file name encodes, or None for other files."""
    for suffix in BLOB_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return None


def _mmap_npz_member(path: str, name: str) -> np.ndarray:
    """Memory-map one *stored* (uncompressed) member of an npz file.

    ``np.savez`` writes plain ``.npy`` payloads into a STORED zip, so the
    array bytes sit contiguously in the file; after parsing the npy
    header we can hand the data region to ``np.memmap`` directly.
    Raises on compressed/unsupported layouts -- callers fall back to an
    eager load.
    """
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(name)
        if info.compress_type != zipfile.ZIP_STORED:
            raise SimulationError("npz member %r is compressed" % name)
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if local[:4] != b"PK\x03\x04":
            raise SimulationError("bad local zip header in %s" % path)
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise SimulationError("unsupported npy version %r" % (version,))
        offset = fh.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_trace_blob(path: str, mmap: bool = False) -> np.ndarray:
    """Load (or memory-map) the trace matrix of a blob file.

    Compressed ``.npz.z`` blobs decompress in memory; memory-mapping
    them goes through :meth:`ResultCache.open_trace`, which rehydrates
    the uncompressed file first so the map has real bytes to point at.
    """
    if path.endswith(COMPRESSED_SUFFIX):
        with open(path, "rb") as fh:
            raw = zlib.decompress(fh.read())
        with np.load(io.BytesIO(raw)) as npz:
            return npz[TRACE_MEMBER]
    if mmap:
        try:
            return _mmap_npz_member(path, TRACE_MEMBER + ".npy")
        except (OSError, ValueError, KeyError, SimulationError,
                zipfile.BadZipFile):
            pass  # fall back to an eager load below
    with np.load(path) as npz:
        return npz[TRACE_MEMBER]


def default_cache_dir() -> Optional[str]:
    """The shared cache directory, if ``REPRO_CACHE_DIR`` names one."""
    path = os.environ.get(CACHE_DIR_ENV, "").strip()
    return path or None


@dataclass
class CacheStats:
    """Hit/miss/store counters of one ResultCache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Content-addressed RunResult store (in-memory + optional disk).

    ``mmap=True`` memory-maps trace blobs on read instead of loading
    them eagerly -- suite-scale consumers that only touch a column or two
    of each trace then never pull whole blobs into memory.  Mapped traces
    are read-only views; appending to them copies first.

    ``fanout`` names the shard depth and accepts only ``2``
    (``<root>/ab/cd/``); flat stores are upgraded once with
    :func:`migrate`.  ``compress="deflate"`` writes new trace blobs
    through stdlib zlib; reads handle compressed and plain blobs
    regardless of this setting.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        memory: bool = True,
        mmap: bool = False,
        fanout: int = 2,
        compress: Optional[str] = None,
    ) -> None:
        if root is None and not memory:
            raise SimulationError(
                "a cache needs a root directory or the memory layer"
            )
        if fanout != 2:
            raise ConfigurationError(
                "fanout must be 2 (the <root>/ab/cd/ layout; upgrade flat "
                "stores with `repro-dtpm cache migrate`), got %r" % (fanout,)
            )
        _check_codec(compress)
        self.root = (
            os.path.abspath(os.path.expanduser(root)) if root else None
        )
        self.compress = compress
        self.mmap = mmap
        self._lock = threading.Lock()
        # decoded results, so repeated in-process hits skip JSON parsing
        # (callers share the object, like the old per-session run memo);
        # service HTTP threads and job workers share one instance
        self._memory: Optional[Dict[str, RunResult]] = (  # guarded-by: _lock
            {} if memory else None
        )
        self.stats = CacheStats()  # guarded-by: _lock

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Disk-backed cache at ``$REPRO_CACHE_DIR``, else in-memory only."""
        return cls(root=default_cache_dir())

    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key[:2], key[2:4])

    def _path(self, key: str) -> str:
        """The summary path of ``key``."""
        return os.path.join(self._entry_dir(key), key + ".json")

    def _find_blob(self, key: str) -> Optional[str]:
        """The existing trace blob for ``key``, plain first."""
        base = self._entry_dir(key)
        for suffix in BLOB_SUFFIXES:
            path = os.path.join(base, key + suffix)
            if os.path.exists(path):
                return path
        return None

    def _read_trace(self, key: str, mmap: bool) -> np.ndarray:
        """One entry's trace matrix, rehydrating compressed blobs for maps.

        A compressed blob read with ``mmap=True`` is decompressed to the
        plain ``.npz`` beside its summary (atomic write), the compressed
        file is dropped, and the fresh file is mapped -- decompression
        on first touch, every later read maps directly.  Non-mapped
        reads decompress in memory and leave the store as-is.
        """
        path = self._find_blob(key)
        if path is None:
            raise SimulationError("no trace blob for cache entry %s" % key)
        if not mmap or not path.endswith(COMPRESSED_SUFFIX):
            return load_trace_blob(path, mmap=mmap)
        with open(path, "rb") as fh:
            raw = zlib.decompress(fh.read())
        plain = path[: -len(COMPRESSED_SUFFIX)] + TRACE_BLOB_SUFFIX
        self._atomic_write(plain, raw)
        try:
            os.unlink(path)
        except OSError:
            pass  # a concurrent rehydrator got there first
        return load_trace_blob(plain, mmap=True)

    def _load_disk(self, key: str) -> Optional[RunResult]:
        if self.root is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            payload = json.loads(blob.decode("utf-8"))
            if (
                not isinstance(payload, dict)
                or payload.get("artifact") != ARTIFACT_FORMAT
            ):
                return None  # foreign or superseded artifact: a miss
            result = summary_to_result(
                payload, self._read_trace(key, mmap=self.mmap)
            )
        except (OSError, ValueError, KeyError, SimulationError,
                zipfile.BadZipFile, zlib.error):
            # corrupt/stale entry: treat as a miss, let the writer replace it
            return None
        self._touch(path)
        return result

    @staticmethod
    def _touch(path: str) -> None:
        """Best-effort LRU access stamp on a disk entry.

        :func:`prune` evicts oldest-accessed-first by the summary file's
        mtime; bumping it on every successful read makes the store an LRU
        rather than a write-order FIFO.  Failures (read-only mounts,
        races with a pruner, entries that only live in memory) are
        ignored -- the entry just keeps its old position in the eviction
        order.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None on a miss."""
        with self._lock:
            memo = (
                self._memory.get(key) if self._memory is not None else None
            )
            if memo is not None:
                self.stats.hits += 1
        if memo is not None:
            if self.root is not None:
                # memory-layer hits must keep the disk entry warm too, or
                # a long-lived process would let prune() evict its hottest
                # keys by their stale first-read stamp
                self._touch(self._path(key))
            return memo
        result = self._load_disk(key)  # file I/O stays outside the lock
        with self._lock:
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if self._memory is not None:
                self._memory[key] = result
        return result

    @staticmethod
    def _atomic_write(path: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key: str, result: RunResult) -> None:
        """Store a result under its content key."""
        with self._lock:
            if self._memory is not None:
                self._memory[key] = result
        if self.root is not None:
            base = os.path.join(self._entry_dir(key), key)
            os.makedirs(os.path.dirname(base), exist_ok=True)
            # trace blob first, summary JSON last: the summary is the
            # commit point, so readers never see a summary without a blob
            blob = trace_blob_bytes(result)
            keep, drop = BLOB_SUFFIXES
            if self.compress is not None:
                blob = zlib.compress(blob, 6)
                keep, drop = drop, keep
            self._atomic_write(base + keep, blob)
            self._atomic_write(
                base + ".json", payload_bytes(result_to_summary(result))
            )
            # a re-put under the other codec leaves the old variant
            # behind; drop it so the entry has exactly one blob
            try:
                os.unlink(base + drop)
            except OSError:
                pass
        with self._lock:
            self.stats.stores += 1

    def stats_snapshot(self) -> CacheStats:
        """A point-in-time copy of the hit/miss/store counters."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                stores=self.stats.stores,
            )

    # ------------------------------------------------------------------
    # suite-scale read path: summaries without traces, traces as memmaps
    # (repro.analysis.suite opens whole directories through these)
    def keys(self) -> List[str]:
        """Every key with an on-disk summary, in deterministic order."""
        if self.root is None:
            return []
        return [key for key, _, _ in _iter_entries(self.root)]

    def load_summary(self, key: str) -> Optional[dict]:
        """One entry's summary payload, without touching its trace blob.

        Returns ``None`` on a miss or an unparseable entry.  Deliberately
        does **not** bump the LRU stamp: analytics sweeps over a suite
        directory are bulk reads and must not reorder the eviction queue
        wholesale.
        """
        if self.root is None:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                return json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):
            return None

    def iter_summaries(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, summary payload)`` for every readable disk entry."""
        for key in self.keys():
            payload = self.load_summary(key)
            if payload is not None:
                yield key, payload

    def frame_chunks(self) -> List[dict]:
        """One columnar frame per top-level shard, from the index files.

        Each frame (see :func:`_build_shard_index`) holds one list per
        summary field, keys sorted; frames come back in sorted shard
        order, which is exactly the global order of :meth:`keys` because
        every key is prefixed by its shard.  A shard's index file is
        validated against its directories' mtimes (entry writes and
        evictions replace/unlink files, which bumps the directory mtime;
        LRU ``utime`` stamps touch only files, so reads never invalidate
        it); a stale or missing file is rebuilt from the shard and
        persisted best-effort, so the first open after a write pays one
        shard scan and every later open is a single JSON read.
        """
        if self.root is None:
            return []
        frames: List[dict] = []
        for shard in _shards(self.root):
            frame = _load_shard_index(self.root, shard)
            if frame is None:
                frame = _build_shard_index(self.root, shard)
                _persist_shard_index(self.root, shard, frame)
            frames.append(frame)
        return frames

    def indexed_summaries(self) -> List[Tuple[str, dict]]:
        """Every ``(key, summary)`` pair, rebuilt from the index files.

        The bulk twin of :meth:`iter_summaries`: on a well-formed store
        both return the same pairs in the same order; entries
        :func:`summary_row` rejects are left out here.
        """
        out: List[Tuple[str, dict]] = []
        for frame in self.frame_chunks():
            tables, notes = frame["trace_columns"], frame["notes"]
            for i, key in enumerate(frame["keys"]):
                payload = {name: frame[name][i] for name in _PAYLOAD_FIELDS}
                payload["artifact"] = ARTIFACT_FORMAT
                payload["notes"] = list(notes[frame["notes_idx"][i]])
                payload["trace"] = {
                    "columns": list(tables[frame["trace_col_idx"][i]]),
                    "length": frame["length"][i],
                }
                out.append((key, payload))
        return out

    def trace_path(self, key: str) -> str:
        """Path of the *uncompressed* trace blob belonging to ``key``.

        Consumers stream these bytes as npz directly (e.g. the service's
        trace endpoint), so a compressed-only entry reports the path its
        plain blob would rehydrate to -- which then does not exist;
        callers fall back to :meth:`get` + :func:`trace_blob_bytes`.
        """
        if self.root is None:
            raise SimulationError("cache has no root directory")
        return os.path.join(self._entry_dir(key), key + TRACE_BLOB_SUFFIX)

    def open_trace(self, key: str, mmap: Optional[bool] = None) -> np.ndarray:
        """The trace matrix of one entry (a memory map by default).

        ``mmap=None`` follows the cache's construction flag; analytics
        callers pass ``mmap=True`` so a whole suite directory opens as
        lazy views and only the pages a reduction touches are ever read.
        Compressed blobs rehydrate on first mapped touch (see
        :meth:`_read_trace`).
        """
        return self._read_trace(
            key, mmap=self.mmap if mmap is None else mmap
        )

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if self._memory is not None and key in self._memory:
                return True
        return self.root is not None and os.path.exists(self._path(key))

    def __len__(self) -> int:
        """Number of distinct entries reachable from this cache."""
        with self._lock:
            keys = set(self._memory or ())
        keys.update(self.keys())
        return len(keys)


# ---------------------------------------------------------------------------
# disk store walking (shared by inspection, pruning, indexing, migration)
# ---------------------------------------------------------------------------
def _subdirs(path: str) -> List[str]:
    """Sorted names of the subdirectories of ``path`` (empty if unreadable)."""
    try:
        with os.scandir(path) as it:
            return sorted(entry.name for entry in it if entry.is_dir())
    except OSError:
        return []


def _shards(root: str) -> List[str]:
    """Top-level shard directories, skipping ``models`` and dot dirs."""
    return [
        name for name in _subdirs(root)
        if name != "models" and not name.startswith(".")
    ]


def _entry_dirs(root: str, shard: Optional[str] = None) -> Iterator[str]:
    """Every depth-2 entry directory (of one shard), in key order."""
    for name in [shard] if shard is not None else _shards(root):
        shard_dir = os.path.join(root, name)
        for sub in _subdirs(shard_dir):
            yield os.path.join(shard_dir, sub)


#: One committed entry: (key, summary path, blob path or None).
_Entry = Tuple[str, str, Optional[str]]


def _scan_entry_dir(entry_dir: str) -> Tuple[List[_Entry], List[str]]:
    """One entry directory as (entries in key order, stray blobs).

    A stray is a blob no reader ever opens: one whose summary never
    landed (an interrupted writer), or the second variant of a key
    holding both ``.npz`` and ``.npz.z`` (a crash between a rehydrate's
    write and its unlink) -- readers take the plain one.
    """
    try:
        names = os.listdir(entry_dir)
    except OSError:
        return [], []
    summaries: List[str] = []
    blobs: Dict[str, List[str]] = {}
    for name in names:
        if name.endswith(".json"):
            summaries.append(name[: -len(".json")])
            continue
        key = _blob_key(name)
        if key is not None:
            blobs.setdefault(key, []).append(name)
    entries: List[_Entry] = []
    for key in sorted(summaries):
        found = sorted(blobs.pop(key, ()))  # plain ".npz" sorts first
        entries.append((
            key,
            os.path.join(entry_dir, key + ".json"),
            os.path.join(entry_dir, found[0]) if found else None,
        ))
        blobs[key] = found[1:]
    strays = sorted(
        os.path.join(entry_dir, name)
        for variants in blobs.values() for name in variants
    )
    return entries, strays


def _iter_entries(root: str, shard: Optional[str] = None) -> Iterator[_Entry]:
    """Yield every committed entry (of one shard), in key order."""
    for entry_dir in _entry_dirs(root, shard):
        yield from _scan_entry_dir(entry_dir)[0]


# ---------------------------------------------------------------------------
# per-shard index files (the bulk read path of frame_chunks)
# ---------------------------------------------------------------------------
def _index_path(root: str, shard: str) -> str:
    return os.path.join(root, INDEX_DIR, shard + ".json")


def _shard_stamp(root: str, shard: str) -> Dict[str, int]:
    """mtime_ns of every entry directory of one shard (the index's validity).

    File writes and unlinks inside a directory bump its mtime; ``utime``
    LRU stamps on files do not.  Creating a depth-2 subdirectory bumps
    the parent, so new subdirs invalidate through the parent stamp even
    before their own entry appears here.
    """
    shard_dir = os.path.join(root, shard)
    stamp: Dict[str, int] = {}
    try:
        stamp[shard] = os.stat(shard_dir).st_mtime_ns
    except OSError:
        return stamp
    prefix = shard + "/"
    try:
        with os.scandir(shard_dir) as it:
            for entry in it:
                try:
                    if entry.is_dir():
                        stamp[prefix + entry.name] = entry.stat().st_mtime_ns
                except OSError:
                    continue
    except OSError:
        pass
    return stamp


#: Per-row index lists into tables of distinct values.  Trace column
#: lists and notes repeat across a suite, so rows store a small int
#: instead of the list itself.
_INDEX_TABLES: Dict[str, str] = {
    "trace_col_idx": "trace_columns",
    "notes_idx": "notes",
}

#: Every per-row list of an index file.
_INDEX_LISTS: Tuple[str, ...] = (
    ("keys", "length") + tuple(_INDEX_TABLES) + _PAYLOAD_FIELDS
)


def _build_shard_index(root: str, shard: str) -> dict:
    """Scan one shard into its columnar index payload.

    The stamp is recorded *before* the scan, so a write racing the scan
    leaves a stamp mismatch behind and the next reader rebuilds.  Rows
    are the :func:`summary_row` extraction of every entry that rule
    accepts (others are skipped, as the per-entry walk skips them), plus
    ``notes`` and the trace ``length``.
    """
    frame: Dict[str, Any] = {
        name: [] for name in _INDEX_LISTS + tuple(_INDEX_TABLES.values())
    }
    frame["index"] = INDEX_FORMAT
    frame["stamp"] = _shard_stamp(root, shard)
    seen: Dict[str, Dict[Tuple[str, ...], int]] = {
        name: {} for name in _INDEX_TABLES
    }
    for key, json_path, _blob in _iter_entries(root, shard):
        try:
            with open(json_path, "rb") as fh:
                payload = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):
            continue  # unreadable debris: the directory walk skips it too
        row = summary_row(payload)
        if row is None:
            continue
        floats, counts, benchmark, mode, completed, columns = row
        for name, value in (
            ("trace_col_idx", columns), ("notes_idx", payload["notes"])
        ):
            idx = seen[name].setdefault(tuple(value), len(seen[name]))
            if idx == len(frame[_INDEX_TABLES[name]]):
                frame[_INDEX_TABLES[name]].append(value)
            frame[name].append(idx)
        frame["keys"].append(key)
        frame["length"].append(int(payload["trace"]["length"]))
        frame["benchmark"].append(benchmark)
        frame["mode"].append(mode)
        frame["completed"].append(completed)
        for name, value in zip(SUMMARY_FLOAT_FIELDS, floats):
            frame[name].append(value)
        for name, value in zip(SUMMARY_COUNT_FIELDS, counts):
            frame[name].append(value)
    return frame


def _load_shard_index(root: str, shard: str) -> Optional[dict]:
    """A still-valid persisted index for one shard, or None."""
    try:
        with open(_index_path(root, shard), "rb") as fh:
            frame = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(frame, dict) or frame.get("index") != INDEX_FORMAT:
        return None
    if frame.get("stamp") != _shard_stamp(root, shard):
        return None  # something was written/evicted since: rebuild
    lists = [frame.get(name) for name in _INDEX_LISTS]
    if any(not isinstance(col, list) for col in lists):
        return None
    if len({len(col) for col in lists}) > 1:
        return None  # ragged columns: rebuild from the shard
    for idx_name, table_name in _INDEX_TABLES.items():
        table = frame.get(table_name)
        if not isinstance(table, list) or not all(
            isinstance(value, list) for value in table
        ):
            return None
        idx = frame[idx_name]
        if idx and not (
            set(map(type, idx)) == {int}
            and min(idx) >= 0
            and max(idx) < len(table)
        ):
            return None
    return frame


def _persist_shard_index(root: str, shard: str, frame: dict) -> None:
    """Write one shard's index file (best effort -- read-only stores
    just rescan)."""
    try:
        os.makedirs(os.path.join(root, INDEX_DIR), exist_ok=True)
        ResultCache._atomic_write(
            _index_path(root, shard), payload_bytes(frame)
        )
    except OSError:
        pass


# ---------------------------------------------------------------------------
# disk store inspection and bounding (the `repro-dtpm cache` subcommand)
# ---------------------------------------------------------------------------
@dataclass
class DiskUsage:
    """What one on-disk cache directory holds."""

    root: str
    entries: int = 0
    result_bytes: int = 0
    blob_bytes: int = 0
    compressed_blobs: int = 0
    index_bytes: int = 0
    model_entries: int = 0
    model_bytes: int = 0
    orphan_blobs: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return (
            self.result_bytes + self.blob_bytes + self.index_bytes
            + self.model_bytes
        )

    def summary(self) -> str:
        text = (
            "%d results, %d models, %.1f MiB total "
            "(%.1f MiB trace blobs, %.1f MiB index)"
            % (
                self.entries,
                self.model_entries,
                self.total_bytes / 2**20,
                self.blob_bytes / 2**20,
                self.index_bytes / 2**20,
            )
        )
        if self.compressed_blobs:
            text += ", %d blob(s) compressed" % self.compressed_blobs
        return text


def _dir_files(path: str) -> List[str]:
    """Sorted paths of the files directly inside ``path``."""
    try:
        with os.scandir(path) as it:
            return sorted(entry.path for entry in it if entry.is_file())
    except OSError:
        return []


def disk_usage(root: str) -> DiskUsage:
    """Inspect an on-disk cache directory (results, blobs, index, models)."""
    root = os.path.abspath(os.path.expanduser(root))
    usage = DiskUsage(root=root)
    if not os.path.isdir(root):
        usage.notes.append("directory does not exist")
        return usage
    for entry_dir in _entry_dirs(root):
        entries, strays = _scan_entry_dir(entry_dir)
        for _key, json_path, blob_path in entries:
            usage.entries += 1
            usage.result_bytes += os.path.getsize(json_path)
            if blob_path is not None:
                usage.blob_bytes += os.path.getsize(blob_path)
                if blob_path.endswith(COMPRESSED_SUFFIX):
                    usage.compressed_blobs += 1
        for path in strays:
            usage.orphan_blobs += 1
            usage.blob_bytes += os.path.getsize(path)
    for path in _dir_files(os.path.join(root, INDEX_DIR)):
        usage.index_bytes += os.path.getsize(path)
    for path in _dir_files(os.path.join(root, "models")):
        if path.endswith(".json"):
            usage.model_entries += 1
            usage.model_bytes += os.path.getsize(path)
    return usage


#: A stray blob younger than this is assumed to belong to an in-flight
#: put() or rehydrate (the blob lands before its summary, or beside the
#: variant it replaces) and is left alone; older ones are interrupted-
#: writer debris.
ORPHAN_GRACE_S = 300.0


def prune(root: str, max_bytes: Optional[int]) -> Tuple[int, int]:
    """Bound the result store; returns (entries removed, bytes freed).

    Result entries are evicted oldest-accessed-first until the
    result+blob footprint fits ``max_bytes``: every successful
    :meth:`ResultCache.get` read bumps the summary file's mtime
    (best-effort ``os.utime``), so the mtime order walked here is LRU --
    entries a warm grid keeps answering from survive, write-once-read-
    never debris goes first.  Passing ``None`` removes **every** result
    entry -- it is deliberately not a default so the full wipe is always
    an explicit choice (the CLI's ``--all``).  Stray trace blobs (see
    :func:`_scan_entry_dir`) older than :data:`ORPHAN_GRACE_S` are
    always collected; younger ones may belong to a concurrent writer.
    The model store (``<root>/models``) is never touched -- models are
    tiny and cost ~10 s to rebuild.

    Pruning is safe against concurrent readers: each entry's trace blob
    is unlinked *before* its summary, so the store never holds an
    unindexed blob (which would leak outside the orphan grace window if
    a pruner died between the two unlinks) -- at worst a reader sees a
    summary whose blob is gone, which :meth:`ResultCache.get` already
    treats as a clean miss, and the half-removed entry stays listed for
    the next prune.  A reader holding an open handle or memory map into
    a blob keeps its data (POSIX unlink semantics); files a concurrent
    pruner removed first are simply skipped, never an error.
    """
    root = os.path.abspath(os.path.expanduser(root))
    if not os.path.isdir(root):
        return 0, 0
    removed = 0
    freed = 0
    entries = []
    strays: List[str] = []
    for entry_dir in _entry_dirs(root):
        found, stray = _scan_entry_dir(entry_dir)
        strays.extend(stray)
        for _key, json_path, blob_path in found:
            size = os.path.getsize(json_path)
            mtime = os.path.getmtime(json_path)
            if blob_path is not None:
                size += os.path.getsize(blob_path)
            entries.append((mtime, size, json_path, blob_path))
    now = time.time()
    for path in strays:
        try:
            if now - os.path.getmtime(path) < ORPHAN_GRACE_S:
                continue
            blob_size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            continue  # a writer committed or removed it meanwhile
        freed += blob_size
        removed += 1
    total = sum(size for _, size, _, _ in entries)
    budget = -1 if max_bytes is None else max_bytes
    for mtime, size, json_path, blob_path in sorted(entries):
        if budget >= 0 and total <= budget:
            break
        # blob before summary: a crash between the unlinks leaves a
        # summary readers treat as a miss (and the next prune still
        # lists), never an unindexed blob leaking past the grace window
        paths = [p for p in (blob_path, json_path) if p is not None]
        gone = 0
        for path in paths:
            try:
                os.unlink(path)
                gone += 1
            except FileNotFoundError:
                gone += 1  # a concurrent pruner got there first
            except OSError:
                # undeletable (permissions, a platform that locks mapped
                # files): keep the rest of the entry -- deleting the
                # summary after a stuck blob would orphan the blob
                # outside the index, exactly what blob-first prevents
                break
        if gone == len(paths):
            total -= size
            freed += size
            removed += 1
        # an undeletable entry keeps its footprint counted, so the walk
        # continues into newer entries until the budget is really met
    return removed, freed


# ---------------------------------------------------------------------------
# one-shot store upgrade (the `repro-dtpm cache migrate` subcommand)
# ---------------------------------------------------------------------------
@dataclass
class MigrateStats:
    """What one :func:`migrate` pass did."""

    examined: int = 0
    moved: int = 0
    recompressed: int = 0
    cleaned: int = 0

    def summary(self) -> str:
        return (
            "%d entries examined: %d relocated, %d blobs transcoded, "
            "%d leftover copies cleaned"
            % (self.examined, self.moved, self.recompressed, self.cleaned)
        )


def _move_down(shard_dir: str, key: str, names: List[str],
               stats: MigrateStats) -> None:
    """Rename one key's flat files into its depth-2 directory.

    Blobs go first and the summary last (the commit point, as in
    :meth:`ResultCache.put`).  Flat copies of an entry already
    committed below are dropped instead; a flat blob is kept only when
    the entry below has none.
    """
    target_dir = os.path.join(shard_dir, key[2:4])
    committed = os.path.exists(os.path.join(target_dir, key + ".json"))
    has_blob = any(
        os.path.exists(os.path.join(target_dir, key + suffix))
        for suffix in BLOB_SUFFIXES
    )
    os.makedirs(target_dir, exist_ok=True)
    for name in sorted(names, key=lambda n: n.endswith(".json")):
        source = os.path.join(shard_dir, name)
        if committed and (name.endswith(".json") or has_blob):
            try:
                os.unlink(source)
                stats.cleaned += 1
            except OSError:
                pass
            continue
        os.replace(source, os.path.join(target_dir, name))
        if name.endswith(".json"):
            stats.moved += 1


def migrate(root: str, compress: Optional[str] = None) -> MigrateStats:
    """Upgrade a store in place to the depth-2 layout; transcode blobs.

    Entries of the legacy flat layout (directly under
    ``<root>/<key[:2]>/``) are renamed down into ``<key[:2]>/<key[2:4]>/``
    (see :func:`_move_down`).  Renames are atomic, so every file is
    always in exactly one place: an interrupted pass leaves each key
    either still flat (a miss) or committed below, and re-running
    finishes the job -- a completed store has nothing left to move.

    ``compress`` then transcodes every entry's trace blob: ``"deflate"``
    or ``"none"`` (plain npz); ``None`` (the default) keeps each blob as
    it is.  The index directory is dropped last; it rebuilds on the next
    bulk open.
    """
    root = os.path.abspath(os.path.expanduser(root))
    target = None if compress == "none" else compress
    _check_codec(target)
    stats = MigrateStats()
    if not os.path.isdir(root):
        return stats
    for shard in _shards(root):
        shard_dir = os.path.join(root, shard)
        flat: Dict[str, List[str]] = {}
        for path in _dir_files(shard_dir):
            name = os.path.basename(path)
            key = name[:-5] if name.endswith(".json") else _blob_key(name)
            if key is not None and len(key) >= 4:
                flat.setdefault(key, []).append(name)
        for key in sorted(flat):
            _move_down(shard_dir, key, flat[key], stats)
    keep, drop = BLOB_SUFFIXES
    if target is not None:
        keep, drop = drop, keep
    for key, _json, blob in _iter_entries(root):
        stats.examined += 1
        if compress is None or blob is None:
            continue
        base = os.path.join(os.path.dirname(blob), key)
        if blob != base + keep:
            with open(blob, "rb") as fh:
                raw = fh.read()
            if blob.endswith(COMPRESSED_SUFFIX):
                raw = zlib.decompress(raw)
            if target is not None:
                raw = zlib.compress(raw, 6)
            ResultCache._atomic_write(base + keep, raw)
            stats.recompressed += 1
        try:
            os.unlink(base + drop)  # the transcoded source or a stray
            if blob == base + keep:
                stats.cleaned += 1
        except OSError:
            pass
    shutil.rmtree(os.path.join(root, INDEX_DIR), ignore_errors=True)
    return stats
