"""The ``timestep`` workload: the compiled NumPy executor's time-step loop.

In-process library calls, ``StencilBenchmark.iterate`` on one
``NumpyBackend()`` with library defaults, over four apps at full size: a
fused single-grid app (jacobi2d5pt), a two-grid app with a static carry
(hotspot2d), a 3-D app with a two-state carry (acoustic) and gaussian,
whose plan forms no fused region.  One *call* is one trajectory
(``iterate(inputs, steps)``); one *pass* is one call per app.  The step
counts were chosen so each app takes a similar share of a pass on the
seed commit, and are frozen.

``python3 perfbench/timestep.py --probe-setup --seed N`` is the set-up
probe the workload runs in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple

import common

#: (app, grid shape, frozen steps per trajectory call).
APPS: Tuple[Tuple[str, Tuple[int, ...], int], ...] = (
    ("jacobi2d5pt", (1024, 1024), 40),
    ("hotspot2d", (1024, 1024), 18),
    ("gaussian", (1024, 1024), 1),
    ("acoustic", (64, 128, 128), 11),
)
TINY_APPS = (
    ("jacobi2d5pt", (48, 48), 3),
    ("hotspot2d", (48, 48), 2),
    ("gaussian", (48, 48), 1),
    ("acoustic", (8, 12, 12), 2),
)

#: Trajectory calls the tail percentile is fixed at (10 passes).
FIXED_CALLS = 40
SETUP_REPEATS = 3

#: The interpreter cross-check runs on small grids (it is a slow oracle).
CHECK_SHAPES = {2: (16, 16), 3: (8, 8, 8)}
CHECK_STEPS = 2


def app_table(tiny: bool):
    return TINY_APPS if tiny else APPS


def app_inputs(seed: int, tiny: bool) -> Dict[str, list]:
    """Every app's input grids, generated from the run seed."""
    from repro.apps.suite import get_benchmark

    return {
        name: get_benchmark(name).make_inputs(shape, seed * 7919 + index)
        for index, (name, shape, _steps) in enumerate(app_table(tiny))
    }


def probe_setup(seed: int, tiny: bool) -> float:
    """Seconds from importing the program to every app's first step.

    Runs in a fresh process, so the compilation and plan caches are cold.
    Input generation is not counted.
    """
    start = time.perf_counter()
    common.use_program_path()
    from repro.apps.suite import get_benchmark
    from repro.backend.base import NumpyBackend

    imported = time.perf_counter() - start
    inputs = app_inputs(seed, tiny)
    start = time.perf_counter()
    backend = NumpyBackend()
    for name, _shape, _steps in app_table(tiny):
        get_benchmark(name).iterate(inputs[name], 1, backend=backend)
    return imported + time.perf_counter() - start


def measure_setup(seed: int, tiny: bool) -> List[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh processes, one at a time."""
    import subprocess

    command = [sys.executable, str(common.BENCH_DIR / "timestep.py"),
               "--probe-setup", "--seed", str(seed)] + (["--tiny"] if tiny
                                                        else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True,
                              env=common.program_env(), cwd=common.ROOT)
        samples.append(float(json.loads(done.stdout.splitlines()[-1])
                             ["setup_s"]))
    return samples


def interpreter_check(report: common.Report) -> None:
    """Plan path bit-identical to the interpreter, on small grids."""
    import numpy as np
    from repro.apps.base import squeeze_result
    from repro.apps.suite import get_benchmark
    from repro.backend.base import InterpreterBackend, NumpyBackend
    from repro.backend.plan import iterate_generic

    for name, _shape, _steps in APPS:
        bench = get_benchmark(name)
        inputs = bench.make_inputs(CHECK_SHAPES[bench.ndims], 11)
        oracle = squeeze_result(np.asarray(iterate_generic(
            InterpreterBackend(), bench.build_program(), inputs, CHECK_STEPS,
            carry=bench.carry_spec()), dtype=np.float64))
        fast = bench.iterate(inputs, CHECK_STEPS, backend=NumpyBackend())
        report.attempted += 1
        if oracle.shape != fast.shape or not np.array_equal(oracle, fast):
            report.fail(why=f"{name}: plan path differs from the interpreter")


def run(seed: int, seconds: float, traced: bool, tiny: bool,
        report: common.Report) -> None:
    common.use_program_path()
    import numpy as np
    from repro.apps.suite import get_benchmark
    from repro.backend.base import NumpyBackend

    apps = app_table(tiny)
    fixed_calls = 8 if tiny else FIXED_CALLS
    inputs = app_inputs(seed, tiny)
    grid_bytes = {name: inputs[name][0].nbytes for name, _s, _n in apps}
    machine = common.fingerprint(max(grid_bytes.values()))
    report.note(f"  machine: {json.dumps(machine)}")

    if not traced:
        samples = measure_setup(seed, tiny)
        report.add("setup_s", common.median(samples),
                   f"median of {len(samples)} fresh processes {samples}")

    backend = NumpyBackend()
    benches = {name: get_benchmark(name) for name, _s, _n in apps}
    # Warm-up trajectory per app (captures every tape the loop replays);
    # its output is what every timed call must reproduce bit for bit.
    warm = {name: benches[name].iterate(inputs[name], steps, backend=backend)
            for name, _shape, steps in apps}

    calls: List[Tuple[str, float]] = []
    passes: List[float] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(calls) < fixed_calls):
        pass_s = 0.0
        for name, _shape, steps in apps:
            report.attempted += 1
            try:
                begin = time.perf_counter()
                out = benches[name].iterate(inputs[name], steps,
                                            backend=backend)
                elapsed = time.perf_counter() - begin
            except Exception as error:  # noqa: BLE001 - counted, reported
                report.fail(why=f"{name}: {error!r}")
                continue
            pass_s += elapsed
            calls.append((name, elapsed * 1e3))
            if not np.array_equal(out, warm[name]):
                report.fail(why=f"{name}: trajectory differs from warm-up")
        passes.append(pass_s)
    rss_mb = common.peak_rss_mb_self()

    # Correctness against the goldens, outside the timed loop and after the
    # peak-RSS reading.
    for name, _shape, steps in apps:
        report.attempted += 1
        golden = common.golden_iterate(benches[name], inputs[name], steps)
        if (golden.shape != warm[name].shape
                or not np.allclose(warm[name], golden, rtol=1e-5, atol=1e-6)):
            report.fail(why=f"{name}: differs from the NumPy golden")
    interpreter_check(report)

    latency = common.Timing(ms for _name, ms in calls)
    prefix = "traced." if traced else ""
    report.add(prefix + "solve_s", common.median(passes),
               f"median of {len(passes)} passes of the trajectory set "
               f"{[(name, steps) for name, _s, steps in apps]}")
    if traced:
        report.add("traced.latency_p50_ms", latency.median)
        report.add("traced.throughput_rps",
                   len(calls) / max(sum(passes), 1e-9))
        per_layer(report, apps, benches, inputs, calls, backend, machine)
        return
    pct, tail = report.timing("latency_p50_ms", latency,
                              fixed_count=fixed_calls)
    report.add("latency_tail_ms", tail,
               f"p{pct:g} at the fixed count of {fixed_calls} calls "
               f"({latency.count} measured)")
    report.add("throughput_rps", len(calls) / max(sum(passes), 1e-9),
               "trajectory calls per second of call time")
    report.add("success_rate", 1.0 - report.failed / max(report.attempted, 1))
    report.add("peak_rss_mb", rss_mb, "this process, before the checks")


def per_layer(report, apps, benches, inputs, calls, backend,
              machine) -> None:
    """Executor layers: step time vs the golden and the copy floor, plan
    build, fusion, steady-state allocations, lowering and codegen."""
    from repro.backend.cache import CompilationCache
    from repro.backend.base import NumpyBackend
    from repro.backend.plan import PlanCache
    from repro.codegen import generate_kernel
    from repro.rewriting.strategies import NAIVE, lower_program
    from repro.telemetry.registry import get_registry

    floors = {machine["copy_floor_bytes"]: machine["copy_gbps"]}
    report.add("floor.copy_gbps", machine["copy_gbps"],
               f"{machine['copy_floor_kind']} of "
               f"{machine['copy_floor_bytes']} bytes")

    def pool_allocations() -> float:
        return float(get_registry().snapshot()
                     ["repro_pool_allocations"]["value"])

    def timed_ms(fn, repeats: int) -> float:
        samples = []
        for _ in range(repeats):
            begin = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - begin) * 1e3)
        return common.median(samples)

    for name, shape, steps in apps:
        bench = benches[name]
        grids = inputs[name]
        step = common.Timing(ms / steps for app, ms in calls if app == name)
        step_ms = step.median
        pct, tail = step.tail()
        report.add(f"backend.step_ms.{name}", step_ms,
                   f"per step, median of {step.count} trajectory calls")
        report.add(f"backend.step_tail_ms.{name}", tail,
                   f"p{pct:g} of {step.count} trajectory calls")
        nbytes = grids[0].nbytes
        if nbytes not in floors:
            floors[nbytes] = common.copy_gbps(nbytes)
        moved = (len(grids) + 1) * nbytes
        gbps = moved / (step_ms / 1e3) / 1e9
        report.add(f"backend.gbps.{name}", gbps,
                   f"{moved} computed bytes (inputs read + output written)")
        report.add(f"backend.copy_frac.{name}", gbps / floors[nbytes])
        golden_ms = timed_ms(lambda: bench.run_reference(grids), 5)
        report.add(f"apps.golden_ms.{name}", golden_ms, "median of 5 steps")
        report.add(f"backend.golden_ratio.{name}", step_ms / golden_ms)

        fresh = NumpyBackend(cache=CompilationCache(), plans=PlanCache())
        first_ms = timed_ms(lambda: bench.iterate(grids, 1, backend=fresh), 1)
        report.add(f"backend.plan_build_ms.{name}", first_ms - step_ms,
                   "first step on a cold backend minus a steady step")
        plan = backend.plan(bench.build_program(), grids)
        report.add(f"backend.fused_regions.{name}",
                   plan.stats()["fused_regions"])
        before = pool_allocations()
        bench.iterate(grids, steps, backend=backend)
        report.add(f"backend.steady_allocs.{name}",
                   (pool_allocations() - before) / steps,
                   "buffer-pool allocations per warm step")

        program = bench.build_program()
        report.add(f"rewriting.lower_ms.{name}",
                   timed_ms(lambda: lower_program(program, NAIVE), 5))
        lowered = lower_program(program, NAIVE)
        types = bench.input_types(shape)
        report.add(f"codegen.generate_ms.{name}", timed_ms(
            lambda: generate_kernel(lowered, types, name), 5))
        kernel = generate_kernel(lowered, types, name)
        report.add(f"codegen.source_bytes.{name}",
                   len(kernel.source.encode("utf-8")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe-setup", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    print(json.dumps({"setup_s": probe_setup(args.seed, args.tiny)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
