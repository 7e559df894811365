"""Served end-to-end benchmark of the DSQL query service.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload hot|fresh|weighted|churn --seed N \\
        --seconds S --trace 0|1

Each run boots the real server (``serve_host.py``) in its own process, so
the memo and plan caches start cold, and drives it with the program's own
``ServiceClient`` from this process: one closed-loop client with one
request outstanding, and no ``time_budget_ms``, so answers are
deterministic.

``--trace 0`` times set-up (median of ``SETUP_BOOTS`` fresh boots), then
sends whole rounds of the workload's stream for ``--seconds`` and prints
the end-to-end metrics; latency and throughput come from the slices of
that phase in which the host stole little CPU time (``QUIET_STEAL``), and
the phase runs on, up to 1.5 times ``--seconds``, until half of it was
quiet. ``--trace 1`` replays a fixed stream of
``trace_rounds`` rounds twice, on an untraced and on a traced server, and
prints the per-layer metrics: self time per layer, exact work counters
(which must agree between the two replays) and the tracing overhead.

After the timed phase every response is checked: by the independent
checker (``checker.py``) against the benchmark's own graph, and for
equality with in-process ``DSQL.query`` on a graph rebuilt from scratch
(for ``churn``, from the benchmark's own replay of its write stream at the
version each read saw). The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it, ``{"meta": ...}``, records the machine, seed and per-operation counts.
See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_BOOTS = 3
"""Fresh server boots per ``--trace 0`` run; ``setup_s`` is their median."""

SLICE_S = 0.5
"""Length of the slices in which host steal time is sampled."""

QUIET_STEAL = 0.05
"""A slice is quiet when the hypervisor took at most this share of the
machine's CPU time in it. The timed metrics use quiet slices only (see
README, "Host noise")."""

ATTRIBUTED_FLOOR = 0.9
"""Share of ``handle_post`` time the traced layers must account for."""

COUNTERS = {
    "cache.query.hit": "catalog.memo_hits",
    "cache.query.miss": "catalog.memo_misses",
    "plan.cache.hits": "plans.cache_hits",
    "plan.cache.misses": "plans.cache_misses",
    "cache.pool.miss": "candidates.pool_misses",
    "search.nodes_expanded": "search.nodes_expanded",
    "kernel.dispatch.scalar": "kernels.scalar",
    "kernel.dispatch.merge": "kernels.merge",
    "kernel.dispatch.scan": "kernels.scan",
    "kernel.dispatch.bitset": "kernels.bitset",
    "kernel.dispatch.cbitset": "kernels.cbitset",
    "phase2.ran": "phase2.ran",
    "phase2.swap_accept": "phase2.swaps",
    "service.mutations": "graph.mutations",
    "service.mutations.compactions": "graph.compactions",
}
"""Server ``/metrics`` counters taken as deltas over the timed stream."""

PER_READ = ("search.nodes_expanded",) + tuple(
    name for name in COUNTERS.values() if name.startswith("kernels.")
)
"""Work counters reported per read rather than as stream totals."""

READ_LAYERS = {
    "server.read_body": "server.read_body_ms",
    "schemas.parse": "schemas.parse_ms",
    "server.probe": "server.probe_ms",
    "cost.probe": "cost.probe_ms",
    "plans.lookup": "plans.lookup_ms",
    "plans.compile": "plans.compile_ms",
    "admission": "admission.ms",
    "server.handle_query": "server.handle_query_ms",
    "catalog.session": "catalog.session_ms",
    "dsql.query": "dsql.query_ms",
    "dsql.memo": "dsql.memo_ms",
    "candidates.build": "candidates.build_ms",
    "graph.index_build": "graph.index_build_ms",
    "phase1": "phase1.ms",
    "phase2": "phase2.ms",
    "schemas.serialize": "schemas.serialize_ms",
}
"""Traced spans whose self time is reported in ms per read."""

WRITE_LAYERS = {"graph.mutate": "graph.mutate_ms", "graph.compact": "graph.compact_ms"}
"""Traced spans whose self time is reported in ms per write."""


def _fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _host_steal_s() -> float:
    """CPU time the hypervisor took from this machine, summed over its CPUs."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Server:
    """One ``serve_host.py`` process and a ``ServiceClient`` bound to it."""

    def __init__(self, specs, k: int, trace: int) -> None:
        from repro.service.client import ServiceClient, ServiceClientError

        cmd = [sys.executable, str(HERE / "serve_host.py"), "--k", str(k), "--trace", str(trace)]
        for spec in specs:
            cmd += ["--graph", spec]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ready = self._expect("ready")
            self.pid = ready["pid"]
            self.setup_layers = ready.get("setup", {})
            self.client = ServiceClient(f"http://127.0.0.1:{ready['port']}")
            give_up = time.monotonic() + 60.0
            while True:
                try:
                    if self.client.healthz().get("status") == "ok":
                        break
                except ServiceClientError:
                    pass
                if time.monotonic() > give_up:
                    raise RuntimeError("the server never answered /healthz with 200")
                time.sleep(0.001)
            self.setup_s = time.monotonic() - ready["t0"]
        except BaseException:
            self.kill()
            raise

    def _expect(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before {event!r} (code {self.proc.wait()})")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"expected {event!r} from the server, got {message}")
        return message

    def command(self, line: str, event: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._expect(event)

    def counters(self) -> dict:
        snapshot = self.client.metrics()["metrics"]
        return {name: snapshot.get(name, 0) for name in COUNTERS}

    def stop(self) -> dict:
        try:
            stopped = self.command("stop", "stopped")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            return stopped
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Record(NamedTuple):
    """One request of the stream as the client saw it."""

    op: tuple
    """``("read", graph, query_index)`` or ``("write", graph, batch_index)``."""
    latency: float
    body: Optional[dict]
    """The response body; ``None`` when the request failed."""
    writes: int
    """Acknowledged writes before this request: the graph version it saw."""
    done: float
    """``time.perf_counter()`` when the response arrived."""

    @property
    def kind(self) -> str:
        return self.op[0]


def _send(client, op, inputs) -> tuple:
    """Send one op; returns ``(latency_s, body or None)``."""
    from repro.service.client import ServiceClientError

    kind, graph, index = op
    start = time.perf_counter()
    try:
        if kind == "read":
            query = inputs.queries[graph][index]
            body = client.query(graph, query, objective=inputs.workload.objective)
        else:
            body = client.ingest(graph, inputs.batches[index])
    except ServiceClientError as exc:
        print(f"e2ebench: {kind} {graph}#{index} failed: {exc}", file=sys.stderr)
        body = None
    return time.perf_counter() - start, body


def _drive(server: Server, ops, inputs, until=None, writes=0, steal=None) -> list:
    """Closed loop over ``ops`` (whole rounds) until ``until()`` is true, if given.

    Returns one :class:`Record` per request; ``writes`` counts the writes
    acknowledged before the first op. When ``steal`` is a list, a
    ``(time, host steal)`` sample is appended to it every ``SLICE_S``.
    """
    records = []
    for round_ops in ops:
        if until is not None and until():
            break
        for op in round_ops:
            if steal is not None and time.perf_counter() - steal[-1][0] >= SLICE_S:
                steal.append((time.perf_counter(), _host_steal_s()))
            latency, body = _send(server.client, op, inputs)
            records.append(Record(op, latency, body, writes, time.perf_counter()))
            if op[0] == "write" and body is not None:
                writes += 1
    return records


def _quiet_slices(steal) -> list:
    """The ``(start, end)`` slices in which host steal stayed under ``QUIET_STEAL``."""
    cpus = os.cpu_count() or 1
    return [
        (t0, t1)
        for (t0, s0), (t1, s1) in zip(steal, steal[1:])
        if s1 - s0 <= QUIET_STEAL * (t1 - t0) * cpus
    ]


def _timed_phase_over(start: float, seconds: float, steal) -> bool:
    """The timed phase lasts ``seconds``, longer while less than half of it
    was quiet, and never more than 1.5 times ``seconds``."""
    elapsed = time.perf_counter() - start
    if elapsed < seconds:
        return False
    if elapsed >= 1.5 * seconds:
        return True
    return sum(t1 - t0 for t0, t1 in _quiet_slices(steal)) >= seconds / 2


def _check(records, inputs) -> list:
    """Checker + reference comparison of every recorded response.

    Returns the list of problems (empty: every answer is right). Writes
    are replayed on the benchmark's own edge sets in stream order, and the
    reference session for a graph is rebuilt from scratch at each version
    that a read saw.
    """
    from checker import check_answer
    from repro.core.config import DSQLConfig
    from repro.core.dsql import DSQL
    from repro.graph.labeled_graph import LabeledGraph
    from repro.graph.query_graph import QueryGraph

    w = inputs.workload
    objective = w.objective or "vertex"
    config = DSQLConfig(k=w.k, objective=objective)
    edges = {name: set(g.edges) for name, g in inputs.graphs.items()}
    # Degrees feed the weighted-vertex recount; that workload never writes.
    degree = {}
    for name, g in inputs.graphs.items():
        degree[name] = [len(row) for row in g.adj]
    version = {name: 0 for name in inputs.graphs}
    sessions, references, problems = {}, {}, []

    for record in records:
        kind, graph, index = record.op
        body = record.body
        if body is None:
            continue
        if kind == "write":
            for op, u, v in inputs.batches[index]:
                (edges[graph].discard if op == "remove_edge" else edges[graph].add)((u, v))
            version[graph] += 1
            sessions.pop(graph, None)
            continue
        query = inputs.queries[graph][index]
        found = check_answer(
            body,
            query,
            inputs.graphs[graph].labels,
            lambda u, v, e=edges[graph]: (u, v) in e if u < v else (v, u) in e,
            degree[graph].__getitem__,
            w.k,
            objective,
        )
        key = (graph, version[graph], index)
        if key not in references:
            if graph not in sessions:
                rebuilt = LabeledGraph(inputs.graphs[graph].labels, sorted(edges[graph]))
                sessions[graph] = DSQL(rebuilt, config=config)
            result = sessions[graph].query(
                QueryGraph(query["labels"], [tuple(e) for e in query["edges"]])
            )
            references[key] = result.to_dict()
        reference = references[key]
        if any(body.get(f) != reference[f] for f in reference if f != "from_cache"):
            found.append("differs from in-process DSQL.query on the rebuilt graph")
        problems += [f"{graph}#{index}@v{version[graph]}: {p}" for p in found]
    return problems


def _answer(body):
    """A response body without its server-side timing."""
    if body is None:
        return None
    return {key: value for key, value in body.items() if key != "elapsed_ms"}


def _coverage_mean(records) -> float:
    """Mean objective value over the distinct (graph, version, query) answered."""
    seen = {}
    for r in records:
        if r.kind == "read" and r.body is not None:
            seen[(r.op[1], r.writes, r.op[2])] = r.body["coverage"]
    return statistics.fmean(seen.values())


def _op_counts(records) -> dict:
    counts = {}
    for r in records:
        row = counts.setdefault(r.kind, {"attempted": 0, "failed": 0})
        row["attempted"] += 1
        row["failed"] += r.body is None
    return counts


def _shape_problems(w, delta: dict) -> list:
    """The workload must exercise what it is meant to exercise."""
    from repro.graph.labeled_graph import DEFAULT_COMPACTION_THRESHOLD

    problems = []
    if w.name in ("fresh", "weighted") and delta["cache.query.hit"]:
        problems.append(f"{delta['cache.query.hit']} memo hits on distinct queries")
    if w.name == "hot" and delta["cache.query.miss"]:
        problems.append(f"{delta['cache.query.miss']} memo misses after warm-up")
    if w.name == "weighted" and not delta["phase2.ran"]:
        problems.append("phase 2 never ran")
    if w.ops_per_write:
        # Every op of a batch applies, so the overlay reaches the threshold
        # after a fixed number of writes: the compaction count is exact.
        per = math.ceil(DEFAULT_COMPACTION_THRESHOLD / w.ops_per_write)
        expected = delta["service.mutations"] // per
        if delta["service.mutations.compactions"] != expected or not expected:
            problems.append(
                f"{delta['service.mutations.compactions']} compactions after "
                f"{delta['service.mutations']} writes (expected {expected}, at least 1)"
            )
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(inputs, specs, seconds: float) -> tuple:
    """``--trace 0``: set-up boots, then the timed stream; end-to-end metrics."""
    w = inputs.workload
    setups = []
    for _ in range(SETUP_BOOTS - 1):
        server = Server(specs, w.k, 0)
        setups.append(server.setup_s)
        server.stop()
    server = Server(specs, w.k, 0)
    setups.append(server.setup_s)
    try:
        _drive(server, [inputs.warm], inputs)
        before, cpu0 = server.counters(), _proc_cpu_s(server.pid)
        start = time.perf_counter()
        steal = [(start, _host_steal_s())]
        # Peak RSS is read after a fixed amount of work: the caches grow with
        # every distinct query, so a reading at the deadline would follow the
        # host's speed rather than the program's memory use.
        records = _drive(server, inputs.rounds[: w.rss_rounds], inputs, steal=steal)
        rss_mb = _proc_peak_rss_mb(server.pid)
        writes = sum(1 for r in records if r.kind == "write" and r.body is not None)
        records += _drive(
            server,
            inputs.rounds[w.rss_rounds:],
            inputs,
            lambda: _timed_phase_over(start, seconds, steal),
            writes,
            steal,
        )
        elapsed = time.perf_counter() - start
        steal.append((time.perf_counter(), _host_steal_s()))
        cpu = _proc_cpu_s(server.pid) - cpu0
        after = server.counters()
    finally:
        server.stop()
    if len(records) == sum(len(r) for r in inputs.rounds):
        print("e2ebench: WARNING the stream ran out before the deadline", file=sys.stderr)
    delta = {name: after[name] - before[name] for name in COUNTERS}
    check_start = time.perf_counter()
    problems = _check(records, inputs) + _shape_problems(w, delta)
    check_s = time.perf_counter() - check_start

    answered = [r for r in records if r.kind == "read" and r.body is not None]
    quiet = _quiet_slices(steal)
    quiet_s = sum(t1 - t0 for t0, t1 in quiet)
    timed, timed_s = answered, elapsed
    if quiet_s >= seconds / 4:
        timed = [r for r in answered if any(t0 < r.done <= t1 for t0, t1 in quiet)]
        timed_s = quiet_s
    reads = sorted(r.latency for r in timed)
    writes = sorted(r.latency for r in records if r.kind == "write" and r.body is not None)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "query_p50_ms": _metric(_quantile(reads, 0.5) * 1000.0, "ms"),
        "throughput_qps": _metric(len(reads) / timed_s, "1/s"),
        "server_rss_mb": _metric(rss_mb, "MiB"),
        "coverage_mean": _metric(_coverage_mean(records), "objective"),
    }
    meta = {
        "setup_runs_s": setups,
        "reads": len(answered),
        "writes": len(writes),
        "elapsed_s": elapsed,
        "server_cpu_s": cpu,
        # Host interference: steal time over the timed phase (all CPUs), and
        # the quiet slices the timed metrics were taken from.
        "host_steal_s": steal[-1][1] - steal[0][1],
        "quiet_s": quiet_s,
        "timed_reads": len(reads),
        "timed_s": timed_s,
        "check_s": check_s,
        # The tail is recorded, not gated: its run-to-run spread on a noisy
        # 2-CPU host exceeds any usable bound (see README).
        "p95_ms": _quantile(reads, 0.95) * 1000.0,
        "p99_ms": _quantile(reads, 0.99) * 1000.0,
        "counters": delta,
    }
    by_graph = {}
    for r in timed:
        by_graph.setdefault(r.op[1], []).append(r.latency)
    meta["p50_ms_by_graph"] = {
        graph: _quantile(sorted(lats), 0.5) * 1000.0 for graph, lats in by_graph.items()
    }
    if writes:
        meta["write_p50_ms"] = _quantile(writes, 0.5) * 1000.0
        meta["write_p99_ms"] = _quantile(writes, 0.99) * 1000.0
    return records, problems, metrics, meta


def _replay(inputs, specs, trace: int) -> tuple:
    """One fresh server, warm-up, then the fixed stream; returns its record."""
    server = Server(specs, inputs.workload.k, trace)
    try:
        _drive(server, [inputs.warm], inputs)
        before, cpu0 = server.counters(), _proc_cpu_s(server.pid)
        server.command("mark", "marked")
        records = _drive(server, inputs.rounds, inputs)
        server.command("end", "ended")
        cpu = _proc_cpu_s(server.pid) - cpu0
        after = server.counters()
    finally:
        stopped = server.stop()
    delta = {name: after[name] - before[name] for name in COUNTERS}
    return records, delta, cpu, stopped.get("trace"), server.setup_layers


def run_traced(inputs, specs) -> tuple:
    """``--trace 1``: the fixed stream untraced, then traced; per-layer metrics."""
    w = inputs.workload
    plain, plain_delta, cpu, _, _ = _replay(inputs, specs, 0)
    traced, delta, _, trace, setup = _replay(inputs, specs, 1)
    problems = _check(traced, inputs) + _shape_problems(w, delta)
    if delta != plain_delta:
        problems.append(f"work counters differ between replays: {plain_delta} vs {delta}")
    if [_answer(r.body) for r in plain] != [_answer(r.body) for r in traced]:
        problems.append("responses differ between the untraced and traced replays")

    reads = sum(1 for r in traced if r.kind == "read")
    writes = len(traced) - reads
    posts = trace["handle_post_ms"]
    if len(posts) != len(traced):
        raise RuntimeError(f"{len(posts)} traced handle_post spans for {len(traced)} requests")
    layers = trace["layers"]

    def self_ms(span: str) -> float:
        return layers.get(span, {}).get("self_ms", 0.0)

    handle_total = layers["server.handle_post"]["total_ms"]
    unattributed = self_ms("server.handle_post")
    if 1.0 - unattributed / handle_total < ATTRIBUTED_FLOOR:
        problems.append(
            f"traced layers cover {1.0 - unattributed / handle_total:.1%} of handle_post "
            f"(< {ATTRIBUTED_FLOOR:.0%})"
        )
    plain_ms = statistics.fmean(r.latency for r in plain) * 1000.0
    traced_ms = statistics.fmean(r.latency for r in traced) * 1000.0
    m = {
        "transport.ms": _metric(
            statistics.fmean(r.latency * 1000.0 - hp for r, hp in zip(traced, posts)), "ms"
        ),
        "wire.response_bytes": _metric(
            statistics.fmean(
                len(json.dumps(r.body, sort_keys=True)) for r in traced if r.kind == "read"
            ),
            "bytes",
        ),
        "server.handle_post_ms": _metric(handle_total / len(traced), "ms"),
        "catalog.memo_hit_ms": _metric(
            layers.get("catalog.memo_hit", {}).get("total_ms", 0.0) / reads, "ms"
        ),
    }
    for span, name in READ_LAYERS.items():
        m[name] = _metric(self_ms(span) / reads, "ms")
    m["catalog.answer_ms"] = _metric(
        (self_ms("catalog.answer") + self_ms("catalog.memo_hit")) / reads, "ms"
    )
    for span, name in WRITE_LAYERS.items():
        m[name] = _metric(self_ms(span) / max(writes, 1), "ms")
    for counter, name in COUNTERS.items():
        if name in PER_READ:
            m[name] = _metric(delta[counter] / reads, "1/query")
        else:
            m[name] = _metric(delta[counter], "count")
    m["setup.dataset_s"] = _metric(setup.get("setup.dataset", {}).get("total_ms", 0.0) / 1e3, "s")
    m["setup.index_s"] = _metric(
        setup.get("graph.index_build", {}).get("total_ms", 0.0) / 1e3, "s"
    )
    m["setup.session_s"] = _metric(
        setup.get("catalog.session", {}).get("total_ms", 0.0) / 1e3, "s"
    )
    m["server.cpu_ms_per_req"] = _metric(cpu * 1000.0 / len(plain), "ms")
    plain_writes = sorted(r.latency for r in plain if r.kind == "write")
    m["write.p50_ms"] = _metric(
        _quantile(plain_writes, 0.5) * 1000.0 if plain_writes else 0.0, "ms"
    )
    m["trace.unattributed_ms"] = _metric(unattributed / len(traced), "ms")
    m["trace.attributed_share"] = _metric(1.0 - unattributed / handle_total, "share")
    spans = sum(row["calls"] for row in layers.values()) * trace["span_cost_ms"]
    m["trace.overhead"] = _metric(spans / (traced_ms * len(traced) - spans), "share")
    m["trace.overhead_ab"] = _metric(traced_ms / plain_ms - 1.0, "share")
    meta = {
        "reads": reads,
        "writes": writes,
        "counters": delta,
        "client_mean_ms": {"untraced": plain_ms, "traced": traced_ms},
        "layers": layers,
    }
    return traced + plain, problems, m, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Served end-to-end DSQL benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"the program is missing: no package at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))

    import checker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    checker.self_test()
    w = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    # The timed phase may run for up to 1.5 times --seconds (_timed_phase_over).
    rounds = w.trace_rounds if args.trace else math.ceil(1.5 * args.seconds * w.rate_hint)
    workdir = ROOT / ".e2ebench_work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        inputs, specs = workloads.build_inputs(args.workload, args.seed, rounds, Path(tmp))
        if args.trace:
            records, problems, metrics, meta = run_traced(inputs, specs)
        else:
            records, problems, metrics, meta = run_untraced(inputs, specs, args.seconds)
    for problem in problems[:20]:
        print(f"e2ebench: FAILED CHECK {problem}", file=sys.stderr)
    ops = _op_counts(records)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        cpus=os.cpu_count(),
        python=platform.python_version(),
        git_sha=_git_sha(),
        ops=ops,
        problems=len(problems),
        wall_s=time.perf_counter() - started,
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(row["attempted"] for row in ops.values()),
        "failed": sum(row["failed"] for row in ops.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
