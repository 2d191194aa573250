"""Shared pieces of the benchmark: statistics, floors, fingerprint, output.

Nothing here imports the program under test (``src/repro``): the statistics
and the output contract are exercised by the self-tests without it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for server state (job checkpoints, logs); removed at exit.
WORK_DIR = ROOT / ".perfbench-work"

#: Tail percentiles tried from the top; the first with >= 10 samples beyond
#: it at a given sample count is that count's tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- statistics ---------------------------------------------------------------

def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 samples beyond it, or None."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Timing:
    """A sample of durations, reported as median + tail with its count."""

    def __init__(self, samples_ms: Iterable[float]) -> None:
        self.samples = list(samples_ms)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return median(self.samples)

    def tail(self, fixed_count: Optional[int] = None) -> Tuple[float, float]:
        """``(percentile, value)``; the percentile is fixed by ``fixed_count``
        (the workload's fixed request count) when given, else by the actual
        sample count.  Below 20 samples no percentile has 10 beyond it and
        the maximum is reported as percentile 100."""
        pct = tail_percentile(fixed_count or self.count)
        if pct is None:
            return 100.0, max(self.samples)
        return pct, percentile(self.samples, pct)


# -- floors and fingerprint ----------------------------------------------------

def copy_gbps(nbytes: int, repeats: int = 15) -> float:
    """Median copy bandwidth of an ``nbytes`` buffer, read + write counted."""
    import numpy as np

    count = max(1, nbytes // 8)
    src = np.random.default_rng(0).random(count)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        elapsed = time.perf_counter() - start
        rates.append(2.0 * src.nbytes / max(elapsed, 1e-9) / 1e9)
    return median(rates)


def _lscpu() -> Dict[str, str]:
    if shutil.which("lscpu") is None:
        return {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


_SIZE = re.compile(r"([\d.]+)\s*([KMG]i?B?)", re.IGNORECASE)
_UNITS = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _parse_size(text: str) -> Optional[int]:
    match = _SIZE.search(text or "")
    if not match:
        return None
    return int(float(match.group(1)) * _UNITS[match.group(2)[0].lower()])


def fingerprint(grid_bytes: int) -> Dict[str, object]:
    """The machine the numbers came from, with the copy floor at one size."""
    import numpy as np

    info = _lscpu()
    llc_text = next((info[key] for key in ("L3 cache", "L2 cache")
                     if key in info), "")
    llc_bytes = _parse_size(llc_text)
    floor = copy_gbps(grid_bytes)
    in_cache = llc_bytes is not None and grid_bytes < 4 * llc_bytes
    return {
        "nproc": os.cpu_count(),
        "cpu_model": info.get("Model name") or platform.processor() or "unknown",
        "llc": llc_text or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "copy_floor_bytes": grid_bytes,
        "copy_gbps": floor,
        "copy_floor_kind": "in-cache copy" if in_cache else "DRAM copy",
    }


def peak_rss_mb_self() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, when /proc shows it."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) / 1024.0 if match else None


def golden_iterate(bench, inputs: Sequence, steps: int):
    """An app's NumPy golden driven through its carry specification."""
    import numpy as np

    state = [np.asarray(grid, dtype=np.float64) for grid in inputs]
    spec = bench.carry_spec()
    out = None
    for _ in range(steps):
        out = bench.run_reference(state)
        state = [out if entry == "out"
                 else state[entry if isinstance(entry, int) else index]
                 for index, entry in enumerate(spec)]
    return out


# -- output -------------------------------------------------------------------

class Report:
    """Collects metrics and notes; prints the human lines and the JSON line."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, note: str = "") -> None:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.metrics[name] = float(value)
        if note:
            self.notes.append(f"  {name}: {note}")

    def timing(self, name: str, timing: Timing,
               fixed_count: Optional[int] = None) -> Tuple[float, float]:
        """Add ``name`` as a median; returns ``(tail pct, tail value)``."""
        pct, tail = timing.tail(fixed_count)
        self.add(name, timing.median,
                 f"median of {timing.count} samples (p{pct:g} = {tail:.4g})")
        return pct, tail

    def note(self, text: str) -> None:
        self.notes.append(text)

    def fail(self, count: int = 1, why: str = "") -> None:
        self.failed += count
        if why:
            self.notes.append(f"  MISMATCH: {why}")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def emit(self, expected: Dict[str, str], stream=None) -> None:
        """Print every metric with its unit, then the one-line JSON result.

        ``expected`` maps the metrics this mode must report to their units;
        a metric the workload does not exercise reads 0.
        """
        unknown = sorted(set(self.metrics) - set(expected))
        if unknown:
            raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
        stream = stream or sys.stdout
        mode = "traced" if self.traced else "untraced"
        print(f"# {self.workload} ({mode})", file=stream)
        for line in self.notes:
            print(line, file=stream)
        metrics = {}
        for name, unit in expected.items():
            value = self.metrics.get(name, 0.0)
            shown = "not exercised" if name not in self.metrics else ""
            print(f"  {name} = {value:.6g} {unit} {shown}".rstrip(),
                  file=stream)
            metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": metrics,
        }), file=stream, flush=True)


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json`` from the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def expected_metrics(spec: Dict[str, object], traced: bool) -> Dict[str, str]:
    """Name -> unit of the metrics one mode reports."""
    section = spec["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}
