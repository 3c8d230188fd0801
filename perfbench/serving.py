"""``serve_mixed``: the evaluation service under a closed-loop request mix.

An in-process :class:`~repro.service.http.EvaluationService` answers two
keep-alive HTTP/1.1 client connections, each sending its next request
only after the previous reply (callers wait for results).  The store is
pre-populated with a few hundred short fan-mode runs; the mix is

* mostly warm ``POST /v1/runs`` over those distinct specs -- a spec's
  first touch misses the warm-response memo, repeats hit it;
* some ``GET /v1/runs/{key}`` and ``GET /v1/runs/{key}/trace``;
* a small share of cold ``POST /v1/runs`` of never-seen specs, each
  polled at ``GET /v1/jobs/{id}`` until done, so writes sit beside reads.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runner import (
    DEFAULT_BATCH,
    ParallelRunner,
    ResultCache,
    RunSpec,
    execute_batch,
    result_bytes,
    result_to_summary,
    spec_key,
    spec_to_wire,
    trace_blob_bytes,
)
from repro.service.http import EvaluationService
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize

from perfbench.harness import HostClock, Outcome, median, percentile

#: Closed-loop client connections.
CLIENTS = 2

#: The timed phase runs in rounds of this length; the host clock is
#: probed between rounds, while the clients are idle.
ROUND_S = 0.5

#: Cumulative request-mix thresholds: warm POST, GET summary, GET trace;
#: the rest are cold POSTs.
_MIX = (0.80, 0.90, 0.995)

_CATEGORIES = ("low", "medium", "high")
_POLL_S = 0.002
#: A cold request not done by then counts as failed (no client hangs).
_COLD_TIMEOUT_S = 30.0


def _short_spec(rng: np.random.Generator, label: str, duration_s: float,
                slot: int) -> RunSpec:
    return RunSpec(
        workload=synthesize(
            _CATEGORIES[slot % 3],
            duration_s=float(rng.uniform(8.0, 15.0)),
            seed=int(rng.integers(2**31)),
            name="pb-serve-%s" % label,
        ),
        mode=(
            ThermalMode.DEFAULT_WITH_FAN if slot % 2 == 0 else ThermalMode.NO_FAN
        ),
        max_duration_s=duration_s,
        seed=int(rng.integers(2**30)),
    )


class _Client:
    """One keep-alive connection's closed loop and its observations."""

    def __init__(self, owner: "ServeMixed", index: int, label: str) -> None:
        self.owner = owner
        self.index = index
        self.label = label
        self.rng = np.random.default_rng([owner.seed, 3, index])
        self.ops = 0
        self.warm_ms: List[float] = []
        self.cold_s: List[float] = []
        self.cold_keys: List[Tuple[str, RunSpec]] = []
        self.failed = 0
        self.error: Optional[Exception] = None
        self.conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self.conn is None:
            host, port = self.owner.service.address
            self.conn = http.client.HTTPConnection(host, port, timeout=30)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = None
            raise

    def _warm(self, method: str, path: str, body: Optional[bytes],
              memo_key: Tuple[str, int]) -> None:
        t0 = perf_counter()
        status, data = self._request(method, path, body)
        self.warm_ms.append(1e3 * (perf_counter() - t0))
        seen = self.owner.responses.setdefault(memo_key, data)
        if status != 200 or data != seen:
            self.failed += 1

    def _cold(self) -> None:
        owner = self.owner
        rng = np.random.default_rng([owner.seed, 4, self.index, self.ops])
        label = "cold-%s-%d-%d" % (self.label, self.index, self.ops)
        spec = _short_spec(rng, label, owner.cold_duration_s, self.ops)
        body = json.dumps(spec_to_wire(spec)).encode("utf-8")
        t0 = perf_counter()
        status, data = self._request("POST", "/v1/runs", body)
        if status != 202:
            self.failed += 1
            return
        reply = json.loads(data.decode("utf-8"))
        path = "/v1/jobs/" + reply["job"]
        while True:
            status, data = self._request("GET", path)
            state = json.loads(data.decode("utf-8")).get("state")
            if status != 200 or state == "failed":
                self.failed += 1
                return
            if state == "done":
                break
            if perf_counter() - t0 > _COLD_TIMEOUT_S:
                self.failed += 1
                return
            sleep(_POLL_S)
        self.cold_s.append(perf_counter() - t0)
        self.cold_keys.append((reply["key"], spec))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def run(self, deadline: float, cap: Optional[int]) -> None:
        """One round: until ``deadline``, or exactly ``cap`` operations."""
        owner = self.owner
        stop = None if cap is None else self.ops + cap
        try:
            while True:
                if stop is not None:
                    if self.ops >= stop:
                        break
                elif perf_counter() >= deadline:
                    break
                roll = self.rng.random()
                idx = int(self.rng.integers(len(owner.keys)))
                key = owner.keys[idx]
                self.ops += 1
                try:
                    if roll < _MIX[0]:
                        self._warm("POST", "/v1/runs", owner.bodies[idx],
                                   ("post", idx))
                    elif roll < _MIX[1]:
                        self._warm("GET", "/v1/runs/" + key, None,
                                   ("summary", idx))
                    elif roll < _MIX[2]:
                        self._warm("GET", "/v1/runs/%s/trace" % key, None,
                                   ("trace", idx))
                    else:
                        self._cold()
                except (OSError, http.client.HTTPException, ValueError):
                    self.failed += 1
        except Exception as exc:  # noqa: BLE001 - counted by record()
            self.error = exc


class ServeMixed:
    name = "serve_mixed"
    setup_repeats = 3

    def __init__(self, seed: int, size: str, work_dir: str,
                 clock: HostClock) -> None:
        self.seed = seed
        self.tiny = size == "tiny"
        self.work_dir = work_dir
        self.clock = clock
        self.root = os.path.join(work_dir, "store")
        self.population = 12 if self.tiny else 320
        self.duration_s = 1.0 if self.tiny else 3.0
        self.cold_duration_s = 1.0 if self.tiny else 2.0
        self.service: Optional[EvaluationService] = None
        self.specs: List[RunSpec] = []
        self.keys: List[str] = []
        self.bodies: List[bytes] = []
        self.responses: Dict[Tuple[str, int], bytes] = {}
        self.phases: Dict[str, dict] = {}

    # -- inputs ---------------------------------------------------------
    def generate(self, outcome: Outcome) -> None:
        """Populate the store with short runs (not part of any timing)."""
        rng = np.random.default_rng([self.seed, 5])
        self.specs = [
            _short_spec(rng, "%d-%d" % (self.seed, i), self.duration_s, i)
            for i in range(self.population)
        ]
        t0 = perf_counter()
        ParallelRunner(
            workers=1, cache=ResultCache(root=self.root, fanout=2),
            batch=DEFAULT_BATCH,
        ).run(self.specs)
        outcome.facts["populate_s"] = perf_counter() - t0
        self.keys = [spec_key(s) for s in self.specs]
        self.bodies = [
            json.dumps(spec_to_wire(s)).encode("utf-8") for s in self.specs
        ]

    # -- set-up ---------------------------------------------------------
    def _start(self) -> EvaluationService:
        service = EvaluationService(
            cache=ResultCache(root=self.root, mmap=True), port=0, workers=2,
            batch=DEFAULT_BATCH,
        ).start()
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status != 200:
                raise RuntimeError("service failed its health check")
        finally:
            conn.close()
        return service

    def setup(self, rep: int) -> None:
        """Service constructed, listening and answering its health check."""
        self.close()
        self.service = self._start()

    # -- phases ---------------------------------------------------------
    def run_phase(self, label: str, seconds: float,
                  replay: Optional[List[List[int]]]) -> Tuple[list, float]:
        """Closed-loop rounds; returns (per-round op counts, wall s).

        ``replay`` gives each round's per-client operation counts to
        repeat exactly (the traced phase).
        """
        # every phase starts on a fresh service: empty memo, cold cache
        # memory layer, so the traced replay sees the same first touches
        self.close()
        self.service = self._start()
        self.responses = {}
        clients = [_Client(self, i, label) for i in range(CLIENTS)]
        rounds: List[List[int]] = []
        walls: List[float] = []
        t_start = perf_counter()
        while True:
            if replay is not None:
                if len(rounds) >= len(replay):
                    break
                caps: List[Optional[int]] = list(replay[len(rounds)])
            elif rounds and perf_counter() - t_start >= seconds:
                break
            else:
                caps = [None] * CLIENTS
            before = [c.ops for c in clients]
            t0 = perf_counter()
            deadline = t0 + min(ROUND_S, seconds)
            threads = [
                threading.Thread(target=c.run, args=(deadline, cap),
                                 name="perfbench-client-%d" % c.index)
                for c, cap in zip(clients, caps)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            walls.append(perf_counter() - t0)
            self.clock.tick()
            rounds.append([c.ops - n for c, n in zip(clients, before)])
        for c in clients:
            c.close()
        self.phases[label] = {
            "clients": clients,
            "wall_s": sum(walls),
            "responses": self.responses,
        }
        return rounds, sum(walls)

    def record(self, outcome: Outcome, label: str) -> None:
        for c in self.phases[label]["clients"]:
            outcome.attempted += c.ops
            outcome.failed += c.failed + (1 if c.error is not None else 0)

    def end_to_end(self, outcome: Outcome) -> None:
        phase = self.phases["untraced"]
        clients = phase["clients"]
        slowdown = self.clock.slowdown
        warm_ms = [x / slowdown for c in clients for x in c.warm_ms]
        cold_s = [x / slowdown for c in clients for x in c.cold_s]
        requests = sum(c.ops for c in clients)
        rate = requests * slowdown / phase["wall_s"]
        results = ResultCache(root=self.root, memory=False)
        stored = [results.get(k) for k in self.keys]
        outcome.metrics.update({
            "throughput": rate,
            "latency_p50_ms": median(warm_ms),
            # p90 as on the other workloads: the p99 moves with how many
            # requests happen to overlap a cold job's simulation
            "latency_tail_ms": percentile(warm_ms, 90),
            "sim_max_temp_c": median([
                float(np.max(r.trace.column("true_max_temp_c")))
                for r in stored
            ]),
            "sim_power_w": float(
                np.mean([r.average_platform_power_w for r in stored])
            ),
        })
        outcome.note("req_rate", rate, "req/s")
        outcome.note("req_p50_ms", median(warm_ms), "ms")
        outcome.note("req_p90_ms", percentile(warm_ms, 90), "ms")
        outcome.note("req_p99_ms", percentile(warm_ms, 99), "ms")
        outcome.note("cold_req_p50_s", median(cold_s), "s")
        outcome.note("raw_req_rate", requests / phase["wall_s"], "req/s")
        outcome.facts["warm_requests"] = len(warm_ms)
        outcome.facts["cold_requests"] = len(cold_s)

    # -- checks ---------------------------------------------------------
    def check(self, outcome: Outcome) -> None:
        checks = outcome.checks
        phase = self.phases["untraced"]
        stored = ResultCache(root=self.root, memory=False)
        bad = 0
        for (kind, idx), data in phase["responses"].items():
            key = self.keys[idx]
            result = stored.get(key)
            if result is None:
                bad += 1
                continue
            if kind == "trace":
                bad += data != trace_blob_bytes(result)
                continue
            summary = json.loads(json.dumps(result_to_summary(result)))
            reply = json.loads(data.decode("utf-8"))
            if kind == "post":
                bad += reply.get("summary") != summary or reply.get("key") != key
            else:
                summary["key"] = key
                bad += reply != summary
        checks.add(
            "every warm response equals result_to_summary(cache.get(key))",
            bad == 0 and bool(phase["responses"]),
            "%d mismatched of %d" % (bad, len(phase["responses"])),
        )

        cold = [kv for c in phase["clients"] for kv in c.cold_keys]
        sample = cold[:2]
        if sample:
            local = execute_batch([spec for _, spec in sample], batch_size=1)
            checks.add(
                "cold results equal a serial in-process execution",
                all(
                    stored.get(key) is not None
                    and result_bytes(stored.get(key)) == result_bytes(chain[-1])
                    for (key, _), chain in zip(sample, local)
                ),
            )

        traced = self.phases.get("traced")
        if traced is not None:
            shared = set(traced["responses"]) & set(phase["responses"])
            checks.add(
                "traced responses equal untraced responses",
                bool(shared) and all(
                    traced["responses"][k] == phase["responses"][k]
                    for k in shared
                ),
            )

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(drain=True)
            self.service = None
