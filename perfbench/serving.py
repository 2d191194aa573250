"""The ``serve_small`` and ``serve_grids`` workloads: ``repro serve`` driven
by real clients over real sockets.

* ``serve_small``: default tuning flags, two blocking ``StencilClient``s on
  the default TCP transport in a closed loop, a seeded skewed draw over all
  14 suite apps at 64^2 / 16^3, single step, real grids on the wire.
* ``serve_grids``: the same server with ``--job-dir`` and one HTTP client
  (binary RPG1 framing above 64 KiB): a fixed seeded sequence of 512^2
  executes, 64^3 ``heat`` iterates (16 steps) and durable ``heat`` jobs
  (32 steps, submit -> wait -> result).

Every response is checked against a result computed before the timed
region: a local compiled run (itself checked against the NumPy golden) for
single steps, a local ``iterate`` for multi-step requests.  The server runs
with ``--no-store`` so no tuning state carries over from one run to the
next.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

SMALL_SHAPES = {2: (64, 64), 3: (16, 16, 16)}
SMALL_VARIANTS = 4
SMALL_CLIENTS = 2
SMALL_FIXED = 2000

GRIDS_APPS = ("jacobi2d5pt", "hotspot2d", "srad1")
GRIDS_SHAPE = (512, 512)
HEAT_SHAPE = (64, 64, 64)
ITERATE_STEPS = 16
JOB_STEPS = 32
GRIDS_VARIANTS = 2
GRIDS_FIXED = 200
JOB_POLL_S = 0.005

SETUP_REPEATS = 3
TRACE_POLL_S = 0.2
CODEC_SAMPLES = 200

#: Scaled-down sizes and counts for the self-tests' smoke runs.
TINY = {"small_shapes": {2: (12, 12), 3: (6, 6, 6)}, "small_fixed": 40,
        "grids_shape": (24, 24), "heat_shape": (8, 8, 8), "grids_fixed": 16}


@dataclass(frozen=True)
class Op:
    """One request of a stream: what to call, on which inputs."""

    kind: str        # "execute" | "iterate" | "job"
    app: str
    variant: int

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.kind, self.app, self.variant)


# -- request streams -------------------------------------------------------------

def small_stream(seed: int, count: int) -> List[Op]:
    """A seeded skewed draw over all 14 apps: the app ranked ``r`` in name
    order has weight ``1/r``.  The ranking is fixed so that every seed
    offers the same mix; the seed picks the sequence and the grids."""
    from repro.apps.suite import ALL_BENCHMARKS

    rng = random.Random(seed)
    apps = sorted(ALL_BENCHMARKS)
    weights = [1.0 / (rank + 1) for rank in range(len(apps))]
    return [Op("execute", rng.choices(apps, weights)[0],
               rng.randrange(SMALL_VARIANTS)) for _ in range(count)]


def grids_stream(seed: int, count: int) -> List[Op]:
    """Exactly 1/8 jobs, 1/4 iterates and the rest 512^2 executes spread
    evenly over apps and grid variants; the seed picks the order (and,
    through the input seeds, the grids)."""
    rng = random.Random(seed)
    jobs, iterates = count // 8, count // 4
    executes = count - jobs - iterates
    ops = ([Op("job", "heat", i % GRIDS_VARIANTS) for i in range(jobs)]
           + [Op("iterate", "heat", i % GRIDS_VARIANTS)
              for i in range(iterates)]
           + [Op("execute", GRIDS_APPS[i % len(GRIDS_APPS)],
                 (i // len(GRIDS_APPS)) % GRIDS_VARIANTS)
              for i in range(executes)])
    rng.shuffle(ops)
    return ops


class Workload:
    """A workload's request stream, input grids and sizes for one seed."""

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        from repro.apps.suite import get_benchmark

        self.name = name
        self.seed = seed
        if name == "serve_small":
            self.fixed = TINY["small_fixed"] if tiny else SMALL_FIXED
            self.ops = small_stream(seed, self.fixed)
            shapes = TINY["small_shapes"] if tiny else SMALL_SHAPES
            shape_of = {op.app: shapes[get_benchmark(op.app).ndims]
                        for op in self.ops}
            self.steps = {"execute": 1}
        else:
            self.fixed = TINY["grids_fixed"] if tiny else GRIDS_FIXED
            self.ops = grids_stream(seed, self.fixed)
            grid = TINY["grids_shape"] if tiny else GRIDS_SHAPE
            heat = TINY["heat_shape"] if tiny else HEAT_SHAPE
            shape_of = {app: grid for app in GRIDS_APPS}
            shape_of["heat"] = heat
            self.steps = {"execute": 1, "iterate": ITERATE_STEPS,
                          "job": JOB_STEPS}
        self.inputs: Dict[Tuple[str, int], list] = {}
        for op in self.ops:
            index = (op.app, op.variant)
            if index not in self.inputs:
                self.inputs[index] = get_benchmark(op.app).make_inputs(
                    shape_of[op.app], self.input_seed(op))
        self.keys = sorted({op.key for op in self.ops})
        # Set-up answers one request per (kind, app): one plan each.
        first: Dict[Tuple[str, str], Op] = {}
        for op in self.ops:
            first.setdefault((op.kind, op.app), op)
        self.warm_ops = list(first.values())
        self.grid_bytes = max(grids[0].nbytes
                              for grids in self.inputs.values())

    def input_seed(self, op: Op) -> int:
        digest = hashlib.blake2b(f"{op.app}/{op.variant}".encode(),
                                 digest_size=4).digest()
        return self.seed * 1_000_003 + int.from_bytes(digest, "little")

    def stream_bytes(self) -> bytes:
        """The request stream as bytes: every op and a hash of its grids."""
        parts = []
        for op in self.ops:
            grids = self.inputs[(op.app, op.variant)]
            digest = hashlib.blake2b(digest_size=16)
            for grid in grids:
                digest.update(grid.tobytes())
            parts.append(json.dumps([op.kind, op.app, op.variant,
                                     self.steps[op.kind],
                                     digest.hexdigest()]))
        return "\n".join(parts).encode("utf-8")

    def request(self, op: Op):
        from repro.service.requests import ExecutionRequest

        return ExecutionRequest(inputs=self.inputs[(op.app, op.variant)],
                                benchmark=op.app, steps=self.steps[op.kind])

    def expected(self, report: common.Report) -> Dict[Tuple, object]:
        """Every key's expected result, each checked against the golden."""
        import numpy as np
        from repro.apps.suite import get_benchmark
        from repro.backend.base import NumpyBackend

        backend = NumpyBackend()
        results = {}
        for key in self.keys:
            kind, app, variant = key
            bench = get_benchmark(app)
            grids = self.inputs[(app, variant)]
            steps = self.steps[kind]
            if steps == 1:
                local = bench.run_lift(grids, backend=backend)
            else:
                local = bench.iterate(grids, steps, backend=backend)
            golden = common.golden_iterate(bench, grids, steps)
            report.attempted += 1
            if (golden.shape != local.shape
                    or not np.allclose(local, golden, rtol=1e-5, atol=1e-6)):
                report.fail(why=f"{key}: local result differs from golden")
            results[key] = local
        return results


# -- the server process ------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess and its JSON-lines control socket."""

    def __init__(self, work: Path, http: bool, job_dir: Optional[Path]):
        self.port = free_port()
        self.http_port = free_port() if http else None
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", str(self.port),
                   "--no-store", "--log-level", "warning"]
        if self.http_port is not None:
            command += ["--http-port", str(self.http_port)]
        if job_dir is not None:
            command += ["--job-dir", str(job_dir)]
        # One malloc arena: with per-thread arenas, freed 2 MB grids stay
        # resident in whichever arena freed them, and the peak RSS swung by
        # ~10% from run to run; latency is the same either way.
        env = common.program_env()
        env["MALLOC_ARENA_MAX"] = "1"
        self.log = open(work / f"server-{self.port}.log", "wb")
        try:
            self.proc = subprocess.Popen(command, stdout=self.log,
                                         stderr=subprocess.STDOUT,
                                         env=env, cwd=common.ROOT)
        except OSError:
            self.log.close()
            raise

    def rpc(self, message: Dict[str, object],
            timeout_s: float = 30.0) -> Dict[str, object]:
        """One JSON-lines exchange on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout_s) as sock:
            sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
            buffer = b""
            while not buffer.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buffer += chunk
        return json.loads(buffer.decode("utf-8"))

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                if self.rpc({"op": "ping"}, timeout_s=5.0).get("pong"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not come up")
            time.sleep(0.01)

    def stats(self) -> Dict[str, object]:
        return self.rpc({"op": "stats"})["stats"]

    def traces(self) -> List[Dict[str, object]]:
        return self.rpc({"op": "trace", "limit": 256}).get("traces") or []

    def peak_rss_mb(self) -> float:
        value = common.peak_rss_mb_of(self.proc.pid)
        if value is None:
            raise RuntimeError("cannot read the server's peak RSS")
        return value

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always waits."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


# -- clients ---------------------------------------------------------------------

def make_client(workload: Workload, server: Server):
    from repro.client import ClientConfig, StencilClient

    if workload.name == "serve_small":
        return StencilClient(ClientConfig(port=server.port))
    return StencilClient(ClientConfig(port=server.http_port,
                                      transport="http"))


def call(client, workload: Workload, op: Op):
    """One operation as a caller sees it; returns (result, error text)."""
    request = workload.request(op)
    if op.kind == "execute":
        response = client.execute(request)
    elif op.kind == "iterate":
        response = client.iterate(request, ITERATE_STEPS)
    else:
        job = client.submit_job(request)
        done = client.wait_job(job["job_id"], timeout_s=60.0,
                               poll_s=JOB_POLL_S)
        if done.get("status") != "completed":
            return None, f"job ended {done.get('status')}: {done.get('error')}"
        _job, result = client.job_result(job["job_id"])
        return result, None
    if not response.ok:
        return None, f"{response.code}: {response.error}"
    return response.result, None


class Tally:
    """Thread-safe record of completed operations, checked as they land."""

    def __init__(self, report: common.Report, expected) -> None:
        self.report = report
        self.expected = expected
        self.lock = threading.Lock()
        self.samples: List[Tuple[Op, float]] = []
        self.measured = 0
        self.solved_at: Optional[float] = None
        #: Called once, when the fixed count of measured ops is done.
        self.on_solved = lambda: None

    def record(self, op: Op, client, workload: Workload,
               measured: bool = True) -> None:
        """Run one op; ``measured`` ops count toward the latency sample."""
        import numpy as np

        begin = time.perf_counter()
        try:
            result, error = call(client, workload, op)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            result, error = None, repr(exc)
        end = time.perf_counter()
        if error is None and not np.array_equal(result,
                                                self.expected[op.key]):
            error = "result differs from the expected grid"
        with self.lock:
            self.report.attempted += 1
            if error is not None:
                self.report.fail(why=f"{op.key}: {error}")
            if not measured:
                return
            self.measured += 1
            if error is None:
                self.samples.append((op, (end - begin) * 1e3))
            solved = self.measured == workload.fixed
            if solved:
                self.solved_at = end
        if solved:
            self.on_solved()


def set_up(workload: Workload, work: Path, tally: Tally
           ) -> Tuple[Server, List[float]]:
    """Spawn + answer every distinct key once, ``SETUP_REPEATS`` times.

    Returns the last (warm) server and every repeat's seconds.
    """
    samples = []
    for repeat in range(SETUP_REPEATS):
        begin = time.perf_counter()
        grids = workload.name == "serve_grids"
        server = Server(work, http=grids,
                        job_dir=work / f"jobs-{repeat}" if grids else None)
        try:
            server.wait_ready()
            client = make_client(workload, server)
            try:
                for op in workload.warm_ops:
                    tally.record(op, client, workload, measured=False)
            finally:
                client.close()
            samples.append(time.perf_counter() - begin)
        except BaseException:
            server.stop()
            raise
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    return server, samples


def drive(workload: Workload, clients: List, tally: Tally,
          seconds: float) -> Tuple[float, float]:
    """The measured closed loop: every client issues its next op when the
    last one returns, until ``seconds`` have passed and at least the fixed
    count was issued.  Returns (elapsed s, s to finish the fixed count)."""
    lock = threading.Lock()
    issued = [0]
    started = time.perf_counter()

    def loop(client) -> None:
        while True:
            with lock:
                if (issued[0] >= workload.fixed
                        and time.perf_counter() - started >= seconds):
                    return
                op = workload.ops[issued[0] % len(workload.ops)]
                issued[0] += 1
            tally.record(op, client, workload)

    threads = [threading.Thread(target=loop, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return elapsed, (tally.solved_at or time.perf_counter()) - started


class TracePoller:
    """Collects the server's request traces newer than a baseline id."""

    def __init__(self, server: Server) -> None:
        self.server = server
        seen = server.traces()
        self.baseline = max((int(t["id"]) for t in seen), default=0)
        self.traces: Dict[int, Dict[str, object]] = {}
        self.stop_event = threading.Event()
        self.thread = threading.Thread(target=self._run)
        self.thread.start()

    def fetch(self) -> None:
        for trace in self.server.traces():
            if int(trace["id"]) > self.baseline:
                self.traces[int(trace["id"])] = trace

    def _run(self) -> None:
        while not self.stop_event.wait(TRACE_POLL_S):
            self.fetch()

    def finish(self) -> List[Dict[str, object]]:
        self.stop_event.set()
        self.thread.join()
        self.fetch()
        return [self.traces[key] for key in sorted(self.traces)]


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool,
        report: common.Report) -> None:
    common.use_program_path()
    workload = Workload(name, seed, tiny)
    machine = common.fingerprint(workload.grid_bytes)
    report.note(f"  machine: {json.dumps(machine)}")
    expected = workload.expected(report)
    tally = Tally(report, expected)
    work = common.WORK_DIR / f"{name}-{seed}-{int(time.time() * 1e3)}"
    work.mkdir(parents=True)
    server = None
    clients: List = []
    try:
        server, setup = set_up(workload, work, tally)
        # Peak RSS at a fixed amount of work: completed jobs stay resident,
        # so a reading at the end of the run would scale with its length.
        rss_mb: List[float] = []
        tally.on_solved = lambda: rss_mb.append(server.peak_rss_mb())
        stats_before = server.stats() if traced else None
        poller = TracePoller(server) if traced else None
        clients = [make_client(workload, server)
                   for _ in range(SMALL_CLIENTS if name == "serve_small"
                                  else 1)]
        elapsed, solve_s = drive(workload, clients, tally, seconds)
        traces = poller.finish() if poller else []
        stats_after = server.stats() if traced else None
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        if common.WORK_DIR.exists() and not any(common.WORK_DIR.iterdir()):
            common.WORK_DIR.rmdir()

    latency = common.Timing(ms for _op, ms in tally.samples)
    throughput = tally.measured / elapsed
    if traced:
        report.add("traced.latency_p50_ms", latency.median)
        report.add("traced.solve_s", solve_s)
        report.add("traced.throughput_rps", throughput)
        report.add("floor.copy_gbps", machine["copy_gbps"],
                   f"{machine['copy_floor_kind']} of "
                   f"{machine['copy_floor_bytes']} bytes")
        per_layer(report, workload, tally, traces, stats_before,
                  stats_after, clients)
        return
    report.add("setup_s", common.median(setup),
               f"median of {len(setup)} spawns, each until all "
               f"{len(workload.warm_ops)} distinct (kind, app) keys were "
               f"answered: {setup}")
    report.add("solve_s", solve_s,
               f"wall time of the fixed {workload.fixed} requests")
    pct, tail = report.timing("latency_p50_ms", latency,
                              fixed_count=workload.fixed)
    report.add("latency_tail_ms", tail,
               f"p{pct:g} at the fixed count of {workload.fixed} requests "
               f"({latency.count} measured)")
    report.add("throughput_rps", throughput,
               f"{tally.measured} requests in {elapsed:.2f} s")
    report.add("success_rate", 1.0 - report.failed / max(report.attempted, 1))
    report.add("peak_rss_mb", rss_mb[0], "server process (VmHWM) when the "
               f"fixed {workload.fixed} requests were done")


# -- per-layer metrics -------------------------------------------------------------

def per_layer(report, workload: Workload, tally: Tally, traces, before,
              after, clients) -> None:
    """Server stages from its trace ring, counters from its stats, and the
    client's codec cost measured on the stream's own requests."""
    report.note(f"  traces collected: {len(traces)} for "
                f"{tally.measured} measured requests")
    for stage in ("admit", "queue", "plan_resolve", "replay", "respond"):
        values = [float(ms) for trace in traces
                  for name, ms in trace.get("stages") or [] if name == stage]
        if values:
            report.add(f"service.{stage}_ms", common.median(values),
                       f"median of {len(values)} traces")
    if traces:
        total = common.Timing(float(t["total_ms"]) for t in traces)
        report.timing("service.total_ms", total)
        report.add("service.batch_size_mean",
                   sum(int(t["batch_size"]) for t in traces) / len(traces))
        traced_calls = common.Timing(ms for op, ms in tally.samples
                                     if op.kind != "job")
        report.add("transport.gap_ms", traced_calls.median - total.median,
                   "client call p50 minus server trace total p50")
        iterates = [float(t["total_ms"]) for t in traces
                    if workload.steps.get("iterate")
                    and t.get("benchmark") == "heat"]
        if iterates:
            report.add("service.iterate_ms", common.median(iterates),
                       f"median trace total of {len(iterates)} iterates")
    jobs = [ms for op, ms in tally.samples if op.kind == "job"]
    if jobs:
        report.timing("jobs.latency_ms", common.Timing(jobs))
        report.add("jobs.checkpoints",
                   _delta(before, after, "service", "jobs",
                          "checkpoints_written"))

    service_before, service_after = before["service"], after["service"]
    report.add("service.batches_formed",
               _delta(before, after, "service", "batches_formed"))
    report.add("service.compilations",
               _delta(before, after, "compilation_cache", "misses"))
    report.add("service.plan_misses",
               _delta(before, after, "service", "plans", "misses"))
    for counter in ("rejects", "sheds"):
        report.add(f"service.{counter}",
                   sum(service_after["admission"][counter].values())
                   - sum(service_before["admission"][counter].values()))
    report.add("client.retries", sum(c.retries_attempted for c in clients))
    codec(report, workload, tally)


def _delta(before, after, *path) -> float:
    def dig(stats):
        for key in path:
            stats = (stats or {}).get(key)
        return float(stats or 0)

    return dig(after) - dig(before)


def codec(report, workload: Workload, tally: Tally) -> None:
    """Client encode/decode time and wire bytes, mirroring the transport's
    framing choice, over the first ``CODEC_SAMPLES`` requests of the stream.
    """
    from repro.client.config import DEFAULT_BINARY_THRESHOLD_BYTES
    from repro.service.requests import ExecutionResponse
    from repro.service.wire import (decode_grid_payload, encode_grid_payload,
                                    iter_chunks)

    binary_ok = workload.name == "serve_grids"
    encode_ms, decode_ms, sent, received = [], [], [], []
    for op in workload.ops[:CODEC_SAMPLES]:
        request = workload.request(op)
        binary = (binary_ok and sum(g.nbytes for g in request.inputs)
                  >= DEFAULT_BINARY_THRESHOLD_BYTES)
        begin = time.perf_counter()
        if binary:
            meta = request.to_wire()
            meta.pop("inputs")
            prefix, buffers = encode_grid_payload(meta, request.inputs)
            body = b"".join(iter_chunks(prefix, buffers))
        else:
            body = (json.dumps(request.to_wire()) + "\n").encode("utf-8")
        encode_ms.append((time.perf_counter() - begin) * 1e3)
        sent.append(len(body))

        result = tally.expected[op.key]
        response = ExecutionResponse(
            result=result, benchmark=op.app, digest="0" * 64,
            variant="naive", plan_source="default", batch_size=1,
            batched=False, latency_s=0.0)
        wire = response.to_wire()
        if binary_ok:
            wire.pop("result")
            prefix, buffers = encode_grid_payload(wire, [result])
            body = b"".join([prefix, *[bytes(b) for b in buffers]])
            begin = time.perf_counter()
            meta, grids = decode_grid_payload(body)
            decoded = ExecutionResponse.from_wire(meta)
            decoded.result = grids[0]
        else:
            body = (json.dumps(wire) + "\n").encode("utf-8")
            begin = time.perf_counter()
            ExecutionResponse.from_wire(json.loads(body.decode("utf-8")))
        decode_ms.append((time.perf_counter() - begin) * 1e3)
        received.append(len(body))
    report.timing("client.encode_ms", common.Timing(encode_ms))
    report.timing("client.decode_ms", common.Timing(decode_ms))
    report.add("wire.request_bytes", sum(sent) / len(sent),
               f"mean over {len(sent)} requests")
    report.add("wire.response_bytes", sum(received) / len(received),
               f"mean over {len(received)} responses")
