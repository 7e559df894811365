"""Server host of the end-to-end benchmark: one fresh serving process.

Run by ``run.py`` as a child process (never imported by it)::

    python3 e2ebench/serve_host.py --graph dblp=PATH [--graph ...] --k 10 --trace 0|1

It loads the catalog from the benchmark's graph files with the program's
own ``build_catalog``, serves it with ``QueryService`` + ``ServiceServer``
on an ephemeral port, and talks to its parent over stdin/stdout, one JSON
object per line:

* on start it prints ``{"event": "ready", "port", "pid", "t0"}`` (plus
  ``"setup"``, the set-up spans, when tracing);
  ``t0`` is ``time.monotonic()`` just before the catalog-load call (after
  interpreter start-up and imports), so the parent can time set-up up to
  its first 200 from ``/healthz``;
* the lines ``mark`` and ``end`` open and close the trace window
  (answered ``{"event": "marked"}`` and ``{"event": "ended"}``);
* the line ``stop`` (or end of input) drains the server and prints
  ``{"event": "stopped", "trace": ...}``, then the process exits.

With ``--trace 1`` the public functions of each layer are wrapped, by the
names their callers look them up under, before the catalog is built.
Spans live in memory until ``stop``; the summary gives self time and call
counts per layer for the current window, the window's ``handle_post``
durations in request order, the set-up split, and the measured cost of
one wrapped call (the tracer's own overhead per span). With ``--trace 0``
nothing is wrapped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
import types
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.core.dsql as dsql_mod  # noqa: E402
import repro.service.catalog as catalog_mod  # noqa: E402
import repro.service.server as server_mod  # noqa: E402
from repro.core.config import DSQLConfig  # noqa: E402
from repro.graph.labeled_graph import LabeledGraph  # noqa: E402
from repro.indexes.graph_cache import GraphIndexCache  # noqa: E402
from repro.indexes.plans import PlanCache  # noqa: E402
from repro.service import QueryService, ServiceServer, build_catalog  # noqa: E402
from repro.service.admission import AdmissionController  # noqa: E402


class SpanRecorder:
    """In-memory spans with per-thread nesting, summarized on demand.

    Each span is ``[name, start_ns, end_ns, child_ns]``; a closing span
    adds its duration to its parent's ``child_ns``, so self time is
    ``end - start - child_ns``. The HTTP server runs one thread per
    connection, hence the thread-local stack.
    """

    def __init__(self) -> None:
        self.spans = []
        self.window = [0, None]
        self._local = threading.local()

    def open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, time.perf_counter_ns(), 0, 0]
        stack.append(span)
        return span

    def close(self, span: list, name: Optional[str] = None) -> None:
        span[2] = time.perf_counter_ns()
        if name is not None:
            span[0] = name
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][3] += span[2] - span[1]
        self.spans.append(span)

    def summary(self) -> dict:
        layers = {}
        handle_post = []
        first, last = self.window
        for name, start, end, child in self.spans[first:last]:
            row = layers.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start - child
            row[2] += end - start
            if name == "server.handle_post":
                handle_post.append((start, (end - start) / 1e6))
        handle_post.sort()
        return {
            "layers": {
                name: {"calls": c, "self_ms": s / 1e6, "total_ms": t / 1e6}
                for name, (c, s, t) in sorted(layers.items())
            },
            "handle_post_ms": [ms for _, ms in handle_post],
        }


def _wrap(recorder: SpanRecorder, owner, attr: str, name: str, rename=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``rename(args, result)`` may return a more specific span name once the
    call has returned (a memo hit versus a miss, say).
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(span, rename(args, result) if rename is not None else None)

    setattr(owner, attr, wrapper)


def _plan_wrapper(recorder: SpanRecorder) -> None:
    """``PlanCache.get_or_compile``: split compiles from cache lookups."""
    fn = PlanCache.get_or_compile

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        misses = self.misses
        span = recorder.open("plans.lookup")
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.close(span, "plans.compile" if self.misses != misses else None)

    PlanCache.get_or_compile = wrapper


def span_cost_ms(calls: int = 20000) -> float:
    """What one wrapped call adds over a bare call, measured in this process."""
    probe = SpanRecorder()
    holder = types.SimpleNamespace(noop=lambda: None)
    bare = holder.noop
    _wrap(probe, holder, "noop", "probe")
    start = time.perf_counter_ns()
    for _ in range(calls):
        bare()
    middle = time.perf_counter_ns()
    for _ in range(calls):
        holder.noop()
    end = time.perf_counter_ns()
    return ((end - middle) - (middle - start)) / calls / 1e6


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap every layer the benchmark attributes, at its call-site name."""
    # Service layers (QueryService / the HTTP handler).
    _wrap(recorder, QueryService, "handle_post", "server.handle_post")
    _wrap(recorder, QueryService, "_probe_cost", "server.probe")
    _wrap(recorder, QueryService, "handle_query", "server.handle_query")
    _wrap(recorder, server_mod._ServiceHandler, "_read_payload", "server.read_body")
    _wrap(recorder, server_mod, "parse_json_body", "schemas.parse")
    _wrap(recorder, server_mod, "parse_query_request", "schemas.parse")
    _wrap(recorder, server_mod, "parse_ingest_request", "schemas.parse")
    _wrap(recorder, server_mod, "result_to_json", "schemas.serialize")
    _wrap(recorder, server_mod, "mutation_to_json", "schemas.serialize")
    # The response ``json.dumps`` in ``_ServiceHandler._send_json``.
    server_mod.json = types.SimpleNamespace(dumps=json.dumps)
    _wrap(recorder, server_mod.json, "dumps", "schemas.serialize")
    _wrap(recorder, AdmissionController, "try_admit", "admission")
    _wrap(recorder, AdmissionController, "release", "admission")
    # Catalog, cost probe and the memo.
    _wrap(recorder, catalog_mod.CatalogEntry, "estimate_cost", "cost.probe")
    _wrap(
        recorder,
        catalog_mod.CatalogEntry,
        "answer",
        "catalog.answer",
        rename=lambda args, result: (
            "catalog.memo_hit" if result is not None and result.from_cache else None
        ),
    )
    _wrap(recorder, catalog_mod.CatalogEntry, "mutate", "graph.mutate")
    _wrap(recorder, LabeledGraph, "compact", "graph.compact")
    # Engine: session, plans, candidates, phases.
    _wrap(recorder, dsql_mod.DSQL, "query", "dsql.query")
    _wrap(recorder, dsql_mod.DSQL, "_memo_answer", "dsql.memo")
    _plan_wrapper(recorder)
    _wrap(recorder, dsql_mod, "CandidateIndex", "candidates.build")
    _wrap(recorder, dsql_mod, "run_phase1", "phase1")
    _wrap(recorder, dsql_mod, "run_phase2", "phase2")
    # Set-up: dataset load, index build, session construction.
    _wrap(recorder, catalog_mod, "load_json", "setup.dataset")
    _wrap(recorder, GraphIndexCache, "__init__", "graph.index_build")
    _wrap(recorder, catalog_mod, "DSQL", "catalog.session")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", action="append", required=True, help="NAME=PATH (JSON)")
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install_tracing(recorder)

    t0 = time.monotonic()
    catalog, _ = build_catalog(graph_files=args.graph, default_config=DSQLConfig(k=args.k))
    service = QueryService(catalog)
    server = ServiceServer(service, port=0).start()
    ready = {
        "event": "ready",
        "port": server.address[1],
        "pid": os.getpid(),
        "t0": t0,
    }
    if recorder is not None:
        ready["setup"] = recorder.summary()["layers"]
    print(json.dumps(ready), flush=True)

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                if recorder is not None:
                    recorder.window = [len(recorder.spans), None]
                print(json.dumps({"event": "marked"}), flush=True)
            elif command == "end":
                if recorder is not None:
                    recorder.window[1] = len(recorder.spans)
                print(json.dumps({"event": "ended"}), flush=True)
            elif command == "stop":
                break
    finally:
        server.close()
    stopped = {"event": "stopped"}
    if recorder is not None:
        stopped["trace"] = recorder.summary()
        stopped["trace"]["span_cost_ms"] = span_cost_ms()
    print(json.dumps(stopped), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
