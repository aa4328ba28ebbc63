"""Self-test of the request-path ledger (run explicitly, not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Checks that ``BENCHMARK.json`` is the catalogue in :mod:`spec` and stays
within the driver's limits, that a ``--smoke`` pass prints exactly the
declared metrics with no failed op, that the op-stream digest depends on
the seed and nothing else, and that the runner refuses to run in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_catalogue_and_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60

    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_every_layer_metric_says_what_it_should_move():
    for name, _unit, _better, moves in spec.PER_LAYER:
        assert moves or name.startswith("ledger."), f"{name} moves nothing"
        for metric, workload in moves:
            assert metric in spec.E2E_NAMES, (name, metric)
            assert workload in spec.WORKLOADS, (name, workload)
    for _why, primary, secondary in spec.WORKLOADS.values():
        assert f"client.{primary}_p50_ms" in spec.LAYER_NAMES
        assert f"client.{secondary}_p50_ms" in spec.LAYER_NAMES


def test_smoke_prints_every_declared_metric_and_no_failure():
    done = run("--smoke", "--seed", "7")
    assert done.returncode == 0, done.stderr[-2000:]
    printed: dict[tuple[str, str], list[str]] = {}
    section = None
    for line in done.stdout.splitlines():
        header = re.match(r"^# (\w+) seed=\d+ seconds=\S+ trace=([01]) ", line)
        if header:
            section = printed.setdefault(header.groups(), [])
        elif section is not None and METRIC_LINE.match(line):
            section.append(METRIC_LINE.match(line).group(1))
        if "fail_ratio=" in line:
            assert "fail_ratio=0.0000" in line, line
    for workload in spec.WORKLOADS:
        assert printed[(workload, "0")] == spec.E2E_NAMES
        assert printed[(workload, "1")] == spec.LAYER_NAMES
    assert "failed ops 0" in done.stdout


def test_contract_run_prints_one_result_object():
    done = run("--smoke", "--workload", "stream_run", "--seed", "3",
               "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    assert list(result["metrics"]) == spec.E2E_NAMES
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _digest(seed: int) -> str:
    done = run("--smoke", "--workload", "stream_run", "--seed", str(seed),
               "--seconds", "0.3", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    return re.search(r"opstream_sha=(\w+)", done.stdout).group(1)


def test_same_seed_same_op_stream_across_processes():
    assert _digest(11) == _digest(11)
    assert _digest(11) != _digest(12)


def test_refuses_to_run_without_the_system_under_test():
    with tempfile.TemporaryDirectory(prefix=".ledger_bare_", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks" / "ledger",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("--workload", "search_read", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert not done.stdout.strip()


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
