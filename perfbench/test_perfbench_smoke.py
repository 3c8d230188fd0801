"""Smoke test of the benchmark: every workload at a tiny size.

Each workload runs untraced and traced with ``--size tiny`` (a few
seconds in all) and must print every declared metric with its unit,
pass every output check, and report an error rate of 0.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run as bench
from perfbench.tracing import per_layer_specs

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

with open(bench.WORKLOADS_FILE) as _fh:
    WORKLOAD_INFO = json.load(_fh)


def test_declarations_agree():
    names = {w["name"] for w in BENCH["workloads"]}
    assert names == set(bench.WORKLOADS) == set(WORKLOAD_INFO["workloads"])
    assert BENCH["per_layer"] == per_layer_specs()
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in BENCH["end_to_end"]
    )
    assert WORKLOAD_INFO["held_out_seed"] not in range(1, 11)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_reports_every_metric(workload, trace, tmp_path, capsys):
    code = bench.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
        "--record-dir", str(tmp_path),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)

    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    assert float(printed["error_rate"][0]) == 0.0
    record = json.loads(
        (tmp_path / ("%s-seed3-trace%d.json" % (workload, trace))).read_text()
    )
    assert {"nproc", "python", "numpy"} <= set(record["host"])
    assert record["git_rev"]
    assert all(check["ok"] for check in record["checks"])
