"""Distributed dispatch: protocol, loopback parity, crash reassignment."""

import socket
import threading

import pytest

from repro.distributed.coordinator import run_batches
from repro.distributed.protocol import (
    ProtocolError,
    chains_from_wire,
    chains_to_wire,
    hello_payload,
    models_from_hello,
    parse_endpoints,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from repro.distributed.worker import WorkerServer
from repro.errors import ConfigurationError, SimulationError
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    model_fingerprint,
    models_to_payload,
    plan_batches,
    result_bytes,
)
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize


@pytest.fixture(scope="module")
def specs():
    return [
        RunSpec(
            workload=synthesize("high", 18.0, threads=4, seed=seed),
            mode=mode,
        )
        for seed in (6, 7)
        for mode in (ThermalMode.NO_FAN, ThermalMode.DEFAULT_WITH_FAN)
    ]


@pytest.fixture(scope="module")
def serial(specs):
    return ParallelRunner().run(list(specs))


def _populate(root, specs, workers):
    runner = ParallelRunner(
        workers=workers, cache=ResultCache(root=root), batch=2
    )
    return runner, runner.run(list(specs))


def _summary_files(root):
    cache = ResultCache(root=root, memory=False)
    out = {}
    for key in cache.keys():
        with open(cache._path(key), "rb") as fh:
            out[key] = fh.read()
    return out


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        send_frame(a, {"op": "hello", "n": 3, "s": "x"})
        assert recv_frame(b) == {"op": "hello", "n": 3, "s": "x"}
    finally:
        a.close()
        b.close()


def test_recv_frame_rejects_eof_garbage_and_oversize():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x02{]")
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


def test_result_wire_round_trip_is_byte_identical(serial):
    for result in serial:
        clone = result_from_wire(result_to_wire(result))
        assert result_bytes(clone) == result_bytes(result)
    chains = [[serial[0]], [serial[1], serial[2]]]
    back = chains_from_wire(chains_to_wire(chains))
    assert [[result_bytes(r) for r in c] for c in back] == [
        [result_bytes(r) for r in c] for c in chains
    ]


def test_hello_ships_models_as_json_with_fingerprint(models):
    import json

    hello = json.loads(json.dumps(hello_payload(models)))
    assert hello["fingerprint"] == model_fingerprint(models)
    clone = models_from_hello(hello)
    assert model_fingerprint(clone) == model_fingerprint(models)
    assert models_from_hello(hello_payload(None)) is None
    tampered = dict(hello, models=models_to_payload(models))
    tampered["models"]["thermal"]["ts_s"] = 0.2
    with pytest.raises(ProtocolError):
        models_from_hello(tampered)
    for garbage in ("gASVAAAA", [1, 2], {"thermal": "x"}, {}):
        with pytest.raises(ProtocolError):
            models_from_hello(dict(hello, models=garbage))


def test_worker_refuses_pickled_or_garbage_hello(monkeypatch):
    """A hello carrying the old base64-pickle field (or junk) is refused
    before any batch runs, and nothing is ever unpickled."""
    import base64
    import pickle

    def no_unpickling(*_args, **_kwargs):
        raise AssertionError("the worker must never unpickle a frame")

    blob = base64.b64encode(pickle.dumps({"not": "models"})).decode("ascii")
    monkeypatch.setattr(pickle, "loads", no_unpickling)
    worker = WorkerServer().start()
    try:
        for models in (blob, "%%% not base64 %%%", 42):
            with socket.create_connection(worker.address, timeout=10) as conn:
                send_frame(conn, {"op": "hello", "schema": 1, "models": models})
                with pytest.raises(ProtocolError):
                    recv_frame(conn)  # connection dropped, no "ready"
    finally:
        worker.stop()


def test_parse_endpoints():
    assert parse_endpoints("a:1, b:65535") == [("a", 1), ("b", 65535)]
    for bad in ("", "hostonly", "h:0", "h:x", "h:70000", ","):
        with pytest.raises(ConfigurationError):
            parse_endpoints(bad)


def test_runner_validates_worker_string_at_construction():
    with pytest.raises(ConfigurationError):
        ParallelRunner(workers="nonsense")


# ---------------------------------------------------------------------------
# loopback execution
# ---------------------------------------------------------------------------
def test_two_worker_run_matches_serial_key_for_key(
    tmp_path, specs, serial
):
    w1, w2 = WorkerServer().start(), WorkerServer().start()
    try:
        serial_runner, serial_cached = _populate(
            str(tmp_path / "serial"), specs, workers=1
        )
        dist_runner, dist = _populate(
            str(tmp_path / "dist"),
            specs,
            workers="%s,%s" % (w1.endpoint, w2.endpoint),
        )
    finally:
        w1.stop()
        w2.stop()
    assert [result_bytes(r) for r in dist] == [
        result_bytes(r) for r in serial
    ]
    assert [result_bytes(r) for r in serial_cached] == [
        result_bytes(r) for r in serial
    ]
    # key-for-key: same content keys, byte-identical summary files
    serial_files = _summary_files(str(tmp_path / "serial"))
    dist_files = _summary_files(str(tmp_path / "dist"))
    assert set(dist_files) == set(serial_files)
    for key, blob in serial_files.items():
        assert dist_files[key] == blob
    assert dist_runner.last_stats.executed == len(specs)


def test_worker_crash_mid_batch_reassigns_and_completes(
    tmp_path, specs, serial
):
    flaky = WorkerServer(fail_runs=1).start()
    steady = WorkerServer().start()
    try:
        cache = ResultCache(root=str(tmp_path))
        runner = ParallelRunner(
            workers="%s,%s" % (flaky.endpoint, steady.endpoint),
            cache=cache,
            batch=2,
        )
        results = runner.run(list(specs))
    finally:
        flaky.stop()
        steady.stop()
    assert [result_bytes(r) for r in results] == [
        result_bytes(r) for r in serial
    ]
    # the reassigned batch produced no duplicate cache writes: one store
    # per distinct content key, nothing else
    assert cache.stats_snapshot().stores == len(set(cache.keys()))
    assert len(cache.keys()) == len(specs)


def test_deterministic_worker_failure_fails_fast(specs):
    """An ``error`` frame (execution raised on the worker) is fatal --
    deterministic failures would fail on every host, so no retry."""

    def _erroring(server_sock):
        conn, _ = server_sock.accept()
        with conn:
            recv_frame(conn)  # hello
            send_frame(conn, {"op": "ready"})
            msg = recv_frame(conn)  # the run frame
            send_frame(conn, {
                "op": "error", "id": msg["id"], "message": "boom",
            })

    lis = socket.socket()
    lis.bind(("127.0.0.1", 0))
    lis.listen(1)
    thread = threading.Thread(target=_erroring, args=(lis,), daemon=True)
    thread.start()
    try:
        with pytest.raises(SimulationError, match="boom"):
            run_batches(
                [[specs[0]]],
                workers="127.0.0.1:%d" % lis.getsockname()[1],
            )
    finally:
        lis.close()
        thread.join(timeout=10.0)


def test_all_workers_dead_raises(specs):
    # grab a port nothing listens on
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    jobs = [[s] for s in specs[:2]]
    with pytest.raises(SimulationError, match="worker"):
        run_batches(jobs, workers="127.0.0.1:%d" % port)


def test_lease_timeout_reassigns_silent_worker(specs, serial):
    """A connected worker that accepts a batch then goes silent (no
    heartbeat, no result) times out its lease; survivors finish the run."""

    def _silent(server_sock):
        conn, _ = server_sock.accept()
        with conn:
            recv_frame(conn)  # hello
            send_frame(conn, {"op": "ready"})
            recv_frame(conn)  # the run frame it will never answer
            stop.wait(30.0)

    stop = threading.Event()
    lis = socket.socket()
    lis.bind(("127.0.0.1", 0))
    lis.listen(1)
    thread = threading.Thread(target=_silent, args=(lis,), daemon=True)
    thread.start()
    steady = WorkerServer().start()
    try:
        silent_ep = "127.0.0.1:%d" % lis.getsockname()[1]
        jobs = plan_batches(list(specs), 2)
        chains = run_batches(
            [[specs[i] for i in job] for job in jobs],
            workers="%s,%s" % (silent_ep, steady.endpoint),
            lease_timeout_s=2.0,
        )
        flat = {}
        for job, job_chains in zip(jobs, chains):
            for i, chain in zip(job, job_chains):
                flat[i] = chain[-1]
        assert [result_bytes(flat[i]) for i in range(len(specs))] == [
            result_bytes(r) for r in serial
        ]
    finally:
        stop.set()
        steady.stop()
        lis.close()
        thread.join(timeout=10.0)
