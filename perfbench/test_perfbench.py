"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402
import serving  # noqa: E402
import timestep  # noqa: E402

SPEC = common.load_spec()
FIXED = {"timestep": timestep.FIXED_CALLS,
         "serve_small": serving.SMALL_FIXED,
         "serve_grids": serving.GRIDS_FIXED}


def run_bench(*args: str, cwd: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", ["serve_small", "serve_grids"])
def test_same_seed_gives_byte_identical_request_stream(name):
    common.use_program_path()
    first = serving.Workload(name, 7).stream_bytes()
    assert first == serving.Workload(name, 7).stream_bytes()
    assert first != serving.Workload(name, 8).stream_bytes()


def test_same_seed_gives_identical_timestep_inputs():
    common.use_program_path()
    first, again = (timestep.app_inputs(7, tiny=True) for _ in range(2))
    for name, grids in first.items():
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(grids, again[name]))


def test_grids_stream_mix_is_exact():
    common.use_program_path()
    ops = serving.grids_stream(3, serving.GRIDS_FIXED)
    kinds = [op.kind for op in ops]
    assert kinds.count("job") == serving.GRIDS_FIXED // 8
    assert kinds.count("iterate") == serving.GRIDS_FIXED // 4


def test_metric_names_are_well_formed_and_unique():
    names = [entry["name"] for section in ("end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert common.METRIC_NAME.match(name), name


@pytest.mark.parametrize("workload", sorted(FIXED))
def test_tail_percentile_has_ten_samples_beyond(workload):
    count = FIXED[workload]
    pct = common.tail_percentile(count)
    assert pct is not None
    assert count * (100 - pct) / 100 >= common.MIN_BEYOND
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    assert f"Tail = p{pct:g} of >= {count}" in why


def test_tail_percentile_ladder():
    assert common.tail_percentile(2000) == 99.0
    assert common.tail_percentile(200) == 95.0
    assert common.tail_percentile(40) == 75.0
    assert common.tail_percentile(19) is None
    assert common.Timing(range(10)).tail() == (100.0, 9)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(FIXED))
def test_tiny_smoke_run(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds",
                     "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
    assert not common.WORK_DIR.exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "timestep", "--seed", "1", "--seconds",
                     "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
