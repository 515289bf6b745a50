"""tsnfv benchmark: three closed-loop workloads over the package's public API.

usage: python3 perfbench/run.py --workload {sweep,fill,serve_tcp} --seed N
                                --seconds S --trace {0,1}

Each run repeats whole rounds of its workload's fixed operation list until
S seconds have passed (at least one round), checks every output, prints
its figures by name, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced run reports the
per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_LAUNCHES = 9  # timed launches for setup_s, spread over the run
SERVE_QUERIES = 4  # capability queries per serve_tcp round
SWEEP_TRACE_ROUNDS = 4  # the traced run's fixed lists
SERVE_TRACE_ROUNDS = 40
START_TIMEOUT_S = 60

import checks  # noqa: E402
import gen  # noqa: E402
from checks import CheckFailed, require  # noqa: E402


def _import_package():
    """Import tsnfv from this checkout's src/, never from elsewhere."""
    if not (SRC / "tsnfv" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/tsnfv")
    sys.path.insert(0, str(SRC))
    import tsnfv

    if Path(tsnfv.__file__).resolve().parent != (SRC / "tsnfv").resolve():
        raise SystemExit(f"error: tsnfv imported from {tsnfv.__file__}, not {SRC}")


_import_package()

from tsnfv import cli, descriptors, verifier  # noqa: E402,F401  (cli: compile it before timing)
from tsnfv.errors import AdmissionFailedError  # noqa: E402
from tsnfv.topology import load_topology, shortest_path  # noqa: E402
from tsnfv.uni import (  # noqa: E402
    CapabilityQuery,
    RemoveStream,
    StreamRequest,
    UniClient,
    decode_routed,
    encode_message,
    encode_routed,
)
from tsnfv.verifier import SimConfig  # noqa: E402
from tsnfv.workspace import Workspace  # noqa: E402

# The CLI's verify defaults: background load 0 and 1, 3 cycles, seed 0.
VERIFY_CFG = SimConfig(bg_load=1.0, seed=0)

# slot -> unit; every workload reports every slot (README maps them)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "primary_ms_p50": "ms",
    "secondary_ms_p50": "ms",
}


class Figures:
    """End-to-end figures of one run: slot -> (value, workload's own name, n)."""

    def __init__(self):
        self.slots: dict[str, tuple[float, str, int]] = {}
        self.extra: list[str] = []

    def median(self, slot: str, name: str, samples: list[float]) -> None:
        # a percentile needs at least ten samples beyond it
        require(len(samples) >= 20, f"{name}: {len(samples)} samples, a median needs 20")
        self.slots[slot] = (statistics.median(samples), name, len(samples))

    def p90(self, name: str, samples: list[float]) -> None:
        if len(samples) >= 100:
            value = statistics.quantiles(samples, n=10)[-1]
            self.extra.append(f"{name} = {value:.4f} ms (n={len(samples)})")

    def rate(self, slot: str, name: str, count: int, seconds: float) -> None:
        self.slots[slot] = (count / seconds, name, count)


def _ms(t0: float, t1: float) -> float:
    return (t1 - t0) * 1e3


def _calibrate() -> float:
    """A fixed pure-Python loop, timed; a reference for the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return _ms(t0, time.perf_counter())


def _text(doc) -> str:
    return json.dumps(doc)


def _parse_and_instantiate(ws: Workspace, nsd_text: str, placement_text: str):
    """One instantiation as `tsnfv instantiate` does it, minus the disk."""
    nsd = descriptors.parse_nsd(nsd_text)
    placement = descriptors.parse_placement(placement_text)
    return ws.instantiate(nsd, placement)


def _check_instance_plans(topo_index, instance) -> int:
    for req, chain in instance.stream_schedules():
        checks.check_stream_plan(topo_index, req, chain)
    return len(instance.streams)


def _check_controllers(topo_index, ws: Workspace) -> None:
    for snapshot in ws.snapshot_states().values():
        checks.check_windows(topo_index, snapshot)
    checks.check_gcls(ws.gcl_docs)


# -- sweep -------------------------------------------------------------------


class SweepRound:
    """One round: every sweep shape once, each through a fresh workspace."""

    def __init__(self):
        self.verify_ms: list[float] = []
        self.instantiate_ms: list[float] = []
        self.service_s = 0.0
        self.attempted = 0  # services
        self.rejected = 0
        self.failed = 0  # a rejection is a completed service; anything else raises

    def run(self, seed: int, r: int, shapes=range(len(gen.SWEEP_SHAPES))) -> None:
        for shape in shapes:
            t0 = time.perf_counter()
            name, topo, nsd, placement = gen.sweep_scenario(seed, r, shape)
            ws = Workspace(load_topology(_text(topo)))
            nsd_text, placement_text = _text(nsd), _text(placement)
            empty = ws.snapshot_states()
            t1 = time.perf_counter()
            try:
                instance = _parse_and_instantiate(ws, nsd_text, placement_text)
            except AdmissionFailedError:
                instance = None
            t2 = time.perf_counter()
            if instance is not None:
                result = verifier.verify_ns(instance, ws.topology, ws.gcl_docs, VERIFY_CFG)
            t3 = time.perf_counter()
            self.attempted += 1
            self.instantiate_ms.append(_ms(t1, t2))
            if instance is None:
                # a rejection by design: rollback must leave nothing behind
                self.rejected += 1
                self.service_s += t2 - t0
                checks.check_empty(ws.snapshot_states(), empty, ws.gcl_docs, f"rejected {name}")
                continue
            self.service_s += t3 - t0
            self.verify_ms.append(_ms(t2, t3))
            topo_index = checks.TopologyIndex(topo)
            try:
                _check_instance_plans(topo_index, instance)
                _check_controllers(topo_index, ws)
                checks.check_simulation(instance, result)
            except CheckFailed as exc:
                raise CheckFailed(f"sweep seed {seed} round {r} shape {name}: {exc}") from None


def run_sweep(seed: int, seconds: float, figures: Figures) -> tuple[int, int]:
    SweepRound().run(seed + 1_000_000, 0, shapes=[2])  # warm-up
    probe = SetupProbe("sweep", seed)
    total = SweepRound()
    r = _measure_rounds(seconds, lambda r: total.run(seed, r), probe)
    figures.slots["setup_s"] = probe.result()
    figures.rate("ops_per_s", "scenarios_per_s", total.attempted, total.service_s)
    figures.median("primary_ms_p50", "verify_ms_p50", total.verify_ms)
    figures.median("secondary_ms_p50", "instantiate_ms_p50", total.instantiate_ms)
    figures.extra.append(f"rounds {r}, services {total.attempted}, rejected {total.rejected}")
    return total.attempted, total.failed


# -- fill --------------------------------------------------------------------


class FillRound:
    """Instantiate every fill service on a fresh workspace, check the full
    controller, then terminate every service and check it is empty."""

    def __init__(self, seed: int, services: int = gen.FILL_SERVICES):
        self.topo = gen.fill_topology()
        self.topo_index = checks.TopologyIndex(self.topo)
        self.texts = [tuple(map(_text, gen.fill_service(seed, k))) for k in range(services)]
        self.instantiate_ms: list[float] = []
        self.terminate_ms: list[float] = []
        self.curve: list[tuple[int, float]] = []  # (streams before, ms)
        self.fill_s = 0.0
        self.admitted = 0
        self.attempted = 0
        self.failed = 0

    def run(self) -> None:
        ws = Workspace(load_topology(_text(self.topo)))
        empty = ws.snapshot_states()
        instances = []
        occupancy = 0
        for nsd_text, placement_text in self.texts:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                instance = _parse_and_instantiate(ws, nsd_text, placement_text)
            except AdmissionFailedError as exc:
                print(f"fill: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            t1 = time.perf_counter()
            self.fill_s += t1 - t0
            self.instantiate_ms.append(_ms(t0, t1))
            self.curve.append((occupancy, _ms(t0, t1)))
            occupancy += len(instance.streams)
            instances.append(instance.instance_id)
        for iid in instances:
            self.admitted += _check_instance_plans(self.topo_index, ws.cuc.instance(iid))
        _check_controllers(self.topo_index, ws)
        for iid in instances:
            self.attempted += 1
            t0 = time.perf_counter()
            ws.terminate(iid)
            self.terminate_ms.append(_ms(t0, time.perf_counter()))
        checks.check_empty(ws.snapshot_states(), empty, ws.gcl_docs, "after the drain")


def run_fill(seed: int, seconds: float, figures: Figures) -> tuple[int, int]:
    FillRound(seed + 1_000_000, services=16).run()  # warm-up
    probe = SetupProbe("fill", seed)
    total = FillRound(seed)
    r = _measure_rounds(seconds, lambda r: total.run(), probe)
    figures.slots["setup_s"] = probe.result()
    figures.rate("ops_per_s", "admit_streams_per_s", total.admitted, total.fill_s)
    figures.median("primary_ms_p50", "instantiate_ms_p50", total.instantiate_ms)
    figures.median("secondary_ms_p50", "terminate_ms_p50", total.terminate_ms)
    figures.p90("instantiate_ms_p90", total.instantiate_ms)
    figures.extra.append(f"rounds {r}, streams admitted per round {total.admitted // r}")
    return total.attempted, total.failed


# -- serve_tcp ---------------------------------------------------------------


class Server:
    """One `tsnfv serve` process on 127.0.0.1, optionally the traced one."""

    def __init__(self, state: Path, spans: Path | None = None):
        if spans is None:
            cmd = [sys.executable, "-m", "tsnfv.cli"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans)]
        cmd += ["serve", "--listen", "127.0.0.1:0", "--state", str(state)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ENV, cwd=ROOT)
        try:
            line = _read_line(self.proc, START_TIMEOUT_S)
            self.ready_s = time.perf_counter() - t0
            require(line.startswith("listening on "), f"serve printed {line!r}")
            host, _, port = line.split()[-1].rpartition(":")
            self.client = UniClient(host, int(port))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        require(self.proc.returncode == 0, f"serve exited with {self.proc.returncode}")


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise CheckFailed(f"no output from {proc.args[1:3]} within {timeout} s")
    return proc.stdout.readline().decode().strip()


class SetupProbe:
    """Times launches from process start to ready: `tsnfv serve` up to its
    `listening on` line, or ready.py for the in-process workloads. One
    untimed launch first fills the file and bytecode caches."""

    def __init__(self, workload: str, seed: int, prefill: Path | None = None):
        self.workload, self.seed, self.prefill = workload, seed, prefill
        self.times: list[float] = []
        self._launch()

    def _launch(self) -> float:
        if self.workload == "serve_tcp":
            state = OUT / f"serve-{self.seed}-setup.json"
            shutil.copyfile(self.prefill, state)
            server = Server(state)
            server.stop()
            return server.ready_s
        cmd = [sys.executable, str(HERE / "ready.py"), self.workload, str(self.seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ENV, cwd=ROOT)
        try:
            line = _read_line(proc, START_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait()
        require(line == "ready" and proc.returncode == 0, f"ready.py printed {line!r}")
        return elapsed

    def sample(self) -> None:
        self.times.append(self._launch())

    def result(self) -> tuple[float, str, int]:
        what = "serve start" if self.workload == "serve_tcp" else "import and first workspaces"
        return statistics.median(self.times), f"setup_s ({what})", len(self.times)


def _measure_rounds(seconds: float, run_round, probe: SetupProbe) -> int:
    """Run whole rounds for about `seconds`: a round starts only while it
    is expected to end in time, and there is always at least one. The
    set-up launches are spread evenly over the run, between rounds, so
    that setup_s sees the same host as the rounds. Returns the rounds run."""
    start = time.perf_counter()
    round_s: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        while len(probe.times) < min(SETUP_LAUNCHES, 1 + SETUP_LAUNCHES * elapsed / seconds):
            probe.sample()
        elapsed = time.perf_counter() - start
        if round_s and elapsed + statistics.mean(round_s) > seconds:
            break
        gc.collect()  # every round starts from the same heap
        t0 = time.perf_counter()
        run_round(len(round_s))
        round_s.append(time.perf_counter() - t0)
    while len(probe.times) < SETUP_LAUNCHES:
        probe.sample()
    return len(round_s)


def _prefill(seed: int) -> Path:
    """The serve_tcp state file: the fill generator at moderate occupancy."""
    path = OUT / f"serve-{seed}-prefill.json"
    topo = gen.fill_topology()
    ws = Workspace(load_topology(_text(topo)))
    for k in range(gen.SERVE_SERVICES):
        _parse_and_instantiate(ws, *map(_text, gen.fill_service(seed, k)))
    _check_controllers(checks.TopologyIndex(topo), ws)
    ws.save(path)
    return path


MUTATIONS = ("stream_request", "remove_stream")


class ServeSession:
    """Client side of serve_tcp: one UniClient, strictly one exchange at a
    time. Each request line is also replayed in process, right after its
    exchange, on a workspace loaded from the same pre-filled state, the
    way the server handles it: decode_routed, Dispatcher.dispatch, then
    for a mutation Workspace.refresh_gcls and Workspace.save. Every
    response must equal the replay's. Refreshing and saving depend on the
    controller state alone, so unless replay_each_mutation is set they
    run once, in finish(), and write the same bytes."""

    def __init__(self, seed: int, prefill: Path, replay_each_mutation: bool = False):
        self.seed = seed
        self.prefill = prefill
        self.topo = gen.fill_topology()
        self.topo_index = checks.TopologyIndex(self.topo)
        self.topology = load_topology(_text(self.topo))
        self.shadow = Workspace.load(prefill)
        self.replay_each_mutation = replay_each_mutation
        self.replayed = OUT / f"serve-{seed}-replay.json"
        self.mutation_ms: list[float] = []
        self.query_ms: list[float] = []
        self.exchange_s = 0.0
        self.socket_s: dict[str, list[float]] = {}  # kind -> client minus replay, per line
        self.attempted = 0
        self.failed = 0
        self.seq = 0
        self.warm = self.round_messages(-1)

    def round_messages(self, r: int) -> list:
        nsd, placement = gen.serve_stream_service(self.seed, r)
        req = descriptors.derive_streams(
            descriptors.parse_nsd(_text(nsd)), descriptors.parse_placement(_text(placement))
        )[0]
        hops = tuple(shortest_path(self.topology, req.talker.node_id, req.listener.node_id).hops)
        msgs = [StreamRequest(self._rid(), req, hops, req.traffic.max_latency_ns)]
        msgs += [CapabilityQuery(self._rid()) for _ in range(SERVE_QUERIES)]
        msgs.append(RemoveStream(self._rid(), req.stream_id))
        return msgs

    def _rid(self) -> str:
        self.seq += 1
        return f"bench-{self.seq:06d}"

    def exchange(self, client: UniClient, msgs: list, timed: bool = True) -> None:
        for msg in msgs:
            self.attempted += 1
            t0 = time.perf_counter()
            response = client.request(msg, "d1")
            t1 = time.perf_counter()
            domain_id, replayed = decode_routed(encode_routed(msg, "d1"))
            expected = self.shadow.dispatcher.dispatch(replayed, domain_id)
            if self.replay_each_mutation and msg.kind in MUTATIONS:
                self.shadow.refresh_gcls()
                self.shadow.save(self.replayed)
            t2 = time.perf_counter()
            require(
                encode_message(response) == encode_message(expected),
                f"serve_tcp: response to {msg.request_id} differs from the replay",
            )
            if response.status != "ok":
                print(f"serve_tcp: {msg.kind} failed: {response.cause} {response.detail}", file=sys.stderr)
                self.failed += 1
                continue
            if isinstance(msg, StreamRequest):
                checks.check_stream_plan(self.topo_index, msg.requirement, [("d1", response.schedule)])
            if not timed:
                continue
            self.exchange_s += t1 - t0
            (self.mutation_ms if msg.kind in MUTATIONS else self.query_ms).append(_ms(t0, t1))
            self.socket_s.setdefault(msg.kind, []).append((t1 - t0) - (t2 - t1))

    def finish(self, state: Path) -> None:
        """The state the server left is byte-identical to the replay's, and
        its controllers are back at the pre-filled ones."""
        self.shadow.refresh_gcls()
        self.shadow.save(self.replayed)
        require(state.read_bytes() == self.replayed.read_bytes(), "server state differs from the replay")
        require(
            json.loads(state.read_text())["cnc"] == json.loads(self.prefill.read_text())["cnc"],
            "server controllers differ from the pre-filled ones",
        )

    def socket_ms(self) -> float:
        """Client exchange time minus replay time. Per request kind, the
        median difference times the count, so that a stall of the host
        during one mutation does not swamp a few ms per exchange."""
        return sum(len(d) * statistics.median(d) for d in self.socket_s.values()) * 1e3


def _serve_pass(session: ServeSession, play, spans: Path | None = None) -> None:
    """Start a server on a copy of the pre-filled state, warm it up, hand
    its client to `play`, stop it and check the state it leaves."""
    state = OUT / f"serve-{session.seed}-state{'-traced' if spans else ''}.json"
    shutil.copyfile(session.prefill, state)
    server = Server(state, spans)
    try:
        session.exchange(server.client, session.warm, timed=False)
        play(server.client)
    finally:
        server.stop()
    session.finish(state)


def run_serve(seed: int, seconds: float, figures: Figures) -> tuple[int, int]:
    prefill = _prefill(seed)
    probe = SetupProbe("serve_tcp", seed, prefill)
    session = ServeSession(seed, prefill)

    def play(client):
        _measure_rounds(seconds, lambda r: session.exchange(client, session.round_messages(r)), probe)

    _serve_pass(session, play)
    figures.slots["setup_s"] = probe.result()
    n = len(session.mutation_ms) + len(session.query_ms)
    figures.rate("ops_per_s", "exchanges_per_s", n, session.exchange_s)
    figures.median("primary_ms_p50", "mutation_ms_p50", session.mutation_ms)
    figures.median("secondary_ms_p50", "query_ms_p50", session.query_ms)
    figures.p90("mutation_ms_p90", session.mutation_ms)
    figures.extra.append(f"exchanges {n} ({len(session.mutation_ms)} mutations), over loopback")
    return session.attempted, session.failed


# -- traced run --------------------------------------------------------------


def run_traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """The workload's fixed list three times: untraced, traced, untraced.
    The traced pass gives the per-layer figures; the mean of the untraced
    passes around it is the base of the tracing overhead. The sweep runs
    the list a fourth time to count the simulator's heap pushes. Returns
    the per-layer figures, attempted, failed and extra report lines."""
    from tracing import HeapPushCounter, Tracer, layer_totals

    lines = []
    passes = []
    if workload == "serve_tcp":
        # Only the server is traced; the client is UniClient and the replay.
        prefill = _prefill(seed)
        server_spans = OUT / f"spans-{workload}-{seed}-server.json"

        def run_pass(traced: bool) -> float:
            session = ServeSession(seed, prefill, replay_each_mutation=not traced)
            rounds = [session.round_messages(r) for r in range(SERVE_TRACE_ROUNDS)]
            gc.collect()
            gc.freeze()  # keep the replay's collections as small as the server's
            play = lambda client: [session.exchange(client, msgs) for msgs in rounds]  # noqa: E731
            _serve_pass(session, play, server_spans if traced else None)
            passes.append(session)
            return session.exchange_s
    else:
        if workload == "sweep":
            SweepRound().run(seed + 1_000_000, 0, shapes=[2])  # warm-up
            make = SweepRound

            def play(rnd):
                for r in range(SWEEP_TRACE_ROUNDS):
                    rnd.run(seed, r)
        else:
            FillRound(seed + 1_000_000, services=16).run()  # warm-up
            make = lambda: FillRound(seed)  # noqa: E731
            play = FillRound.run
        tracer = Tracer()

        def run_pass(traced: bool) -> float:
            rnd = make()
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                play(rnd)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            passes.append(rnd)
            return elapsed

    untraced_s = run_pass(False)
    traced_s = run_pass(True)
    untraced_s = (untraced_s + run_pass(False)) / 2
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    socket_ms = 0.0
    if workload == "serve_tcp":
        dumps = [json.loads(server_spans.read_text())]
        socket_ms = (passes[0].socket_ms() + passes[2].socket_ms()) / 2
        lines.append("client minus replay per exchange, median ms: " + ", ".join(
            f"{kind} {statistics.median(d) * 1e3:.3f}" for kind, d in sorted(passes[0].socket_s.items())))
    else:
        if workload == "sweep":
            with HeapPushCounter() as counter:
                play(make())
            tracer.heap_pushes = counter.pushes
        spans = OUT / f"spans-{workload}-{seed}.json"
        tracer.dump(str(spans))
        dumps = [json.loads(spans.read_text())]
    if workload == "fill":
        buckets: dict[int, list[float]] = {}
        for occ, ms in passes[0].curve + passes[2].curve:
            buckets.setdefault(occ // 32 * 32, []).append(ms)
        lines.append("admission curve, untraced passes (streams before, median instantiate ms):")
        lines += [f"  {occ:4d} {statistics.median(buckets[occ]):8.2f}" for occ in sorted(buckets) if occ >= 32]
    layers = layer_totals(dumps)
    layers["uni.socket_ms"] = socket_ms
    layers["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    lines.append(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    return layers, attempted, failed, lines


# -- entry point -------------------------------------------------------------

WORKLOADS = {"sweep": run_sweep, "fill": run_fill, "serve_tcp": run_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)

    calibration = [_calibrate()]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", flush=True)
    try:
        if args.trace:
            from tracing import PER_LAYER

            layers, attempted, failed, lines = run_traced(args.workload, args.seed)
            for line in lines:
                print(line)
            metrics = {}
            for name, (unit, _) in PER_LAYER.items():
                metrics[name] = {"value": layers.get(name, 0), "unit": unit}
                print(f"{name} = {layers.get(name, 0):.4f} {unit}")
        else:
            figures = Figures()
            attempted, failed = WORKLOADS[args.workload](args.seed, args.seconds, figures)
            metrics = {}
            for slot, unit in END_TO_END_UNITS.items():
                value, name, n = figures.slots[slot]
                metrics[slot] = {"value": value, "unit": unit}
                print(f"{name} = {value:.4f} {unit} (n={n}) [{slot}]")
            for line in figures.extra:
                print(line)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    calibration.append(_calibrate())
    print(f"calibration_ms start {calibration[0]:.1f} end {calibration[1]:.1f} (reference, not a metric)")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
