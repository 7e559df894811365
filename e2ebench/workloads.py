"""Seeded inputs of the end-to-end benchmark: graphs, query streams, writes.

Every input is made here, from ``--seed``, before the server starts; the
server only ever receives the generated graph files and requests.

* Graphs are the registry stand-ins at their benchmark scales, built with
  a fixed generator seed (``GRAPH_SEED``) and written as JSON graph files
  that the server loads. The benchmark keeps its own copy of the labels
  and edge list; the answer checker and the reference rebuild use that
  copy only.
* Queries follow the paper's generator (start at a random vertex, add a
  random incident edge until ``|E_Q|`` edges), run on the benchmark's own
  adjacency lists with ``random.Random`` generators seeded from ``--seed``.
* The ``churn`` write stream removes and adds equal numbers of edges per
  batch, so ``|E|`` stays level; the benchmark replays it on its own edge
  set to know the graph each read saw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.datasets.registry import make_dataset
from repro.graph.query_graph import QueryGraph

GRAPH_SEED = 0
"""Generator seed of the stand-in graphs: fixed, so set-up work is the same
on every run; ``--seed`` varies the request streams only."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix. ``rounds`` are whole units of the closed loop."""

    name: str
    datasets: Tuple[str, ...]
    query_edges: int
    k: int
    objective: Optional[str] = None
    pool: Optional[int] = None
    """Size of the Zipf pool (``hot``, ``churn``); ``None`` = all distinct."""
    zipf_s: float = 1.1
    reads_per_write: int = 0
    ops_per_write: int = 0
    trace_rounds: int = 0
    """Rounds of the fixed stream replayed by a ``--trace 1`` run."""
    rate_hint: float = 0.0
    """Upper bound on rounds per second, used to size the generated stream."""
    rss_rounds: int = 0
    """Rounds served before the peak RSS is read (about 3 s of work)."""

    @property
    def reads_per_round(self) -> int:
        if self.reads_per_write:
            return self.reads_per_write
        return 1 if self.pool else len(self.datasets)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot",
            ("dblp",),
            4,
            10,
            pool=100,
            trace_rounds=3000,
            rate_hint=1000.0,
            rss_rounds=1500,
        ),
        Workload(
            "fresh",
            ("yeast", "human", "dblp", "wordnet", "epinion"),
            5,
            40,
            trace_rounds=100,
            rate_hint=20.0,
            rss_rounds=50,
        ),
        Workload(
            "weighted",
            ("dblp", "epinion"),
            4,
            10,
            objective="weighted-vertex",
            trace_rounds=120,
            rate_hint=30.0,
            rss_rounds=60,
        ),
        Workload(
            "churn",
            ("dblp",),
            4,
            10,
            pool=100,
            reads_per_write=192,
            ops_per_write=1024,
            trace_rounds=12,
            rate_hint=4.0,
            rss_rounds=6,
        ),
    )
}


@dataclass
class Graph:
    """The benchmark's own copy of one served graph."""

    name: str
    labels: List[str]
    edges: List[Tuple[int, int]]
    adj: List[List[int]] = field(init=False)

    def __post_init__(self) -> None:
        self.adj = [[] for _ in self.labels]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for row in self.adj:
            row.sort()


@dataclass
class Inputs:
    workload: Workload
    graphs: Dict[str, Graph]
    queries: Dict[str, List[dict]]
    """Per graph: query dicts ``{"labels", "edges"}`` in stream order."""
    rounds: List[List[tuple]]
    """Ops per round: ``("read", graph, query_index)`` or ``("write", graph, batch)``."""
    warm: List[tuple]
    """Untimed reads sent before timing (the ``hot`` pool)."""
    batches: List[List[list]]
    """``churn`` ingest batches, in stream order."""


def write_graph_file(graph: Graph, path: Path) -> None:
    payload = {"name": graph.name, "labels": graph.labels, "edges": graph.edges}
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_graph(name: str) -> Graph:
    """The registry stand-in for ``name``, as plain lists."""
    g = make_dataset(name, seed=GRAPH_SEED)
    return Graph(name, [str(x) for x in g.labels], sorted(g.edges()))


def random_query(graph: Graph, num_edges: int, rng: random.Random) -> dict:
    """The paper's query generator on the benchmark's adjacency lists."""
    adj = graph.adj
    while True:
        start = rng.randrange(len(adj))
        if not adj[start]:
            continue
        verts, seen, edges = [start], {start}, set()
        for _ in range(64 * num_edges):
            if len(edges) == num_edges:
                break
            u = verts[rng.randrange(len(verts))]
            v = adj[u][rng.randrange(len(adj[u]))]
            e = (u, v) if u < v else (v, u)
            if e in edges:
                continue
            edges.add(e)
            if v not in seen:
                seen.add(v)
                verts.append(v)
        if len(edges) == num_edges:
            break
    index = {v: i for i, v in enumerate(verts)}
    return {
        "labels": [graph.labels[v] for v in verts],
        "edges": sorted(sorted((index[u], index[v])) for u, v in edges),
    }


def canonical(query: dict) -> tuple:
    """The structure key the server's memo and plan cache use."""
    return QueryGraph(query["labels"], [tuple(e) for e in query["edges"]]).canonical_key()


def distinct_queries(graph: Graph, num_edges: int, count: int, rng: random.Random) -> List[dict]:
    out, keys = [], set()
    while len(out) < count:
        q = random_query(graph, num_edges, rng)
        key = canonical(q)
        if key not in keys:
            keys.add(key)
            out.append(q)
    return out


def write_batches(graph: Graph, count: int, ops: int, rng: random.Random) -> List[List[list]]:
    """``count`` batches of ``ops/2`` edge removals then ``ops/2`` additions."""
    edges = list(graph.edges)
    where = {e: i for i, e in enumerate(edges)}
    n = len(graph.labels)
    batches = []
    for _ in range(count):
        removed, added = [], []
        touched = set()
        while len(removed) < ops // 2:
            e = edges[rng.randrange(len(edges))]
            if e not in touched:
                touched.add(e)
                removed.append(e)
        while len(added) < ops // 2:
            u, v = rng.randrange(n), rng.randrange(n)
            e = (u, v) if u < v else (v, u)
            if u != v and e not in where and e not in touched:
                touched.add(e)
                added.append(e)
        for e in removed:
            i = where.pop(e)
            last = edges.pop()
            if i < len(edges):
                edges[i] = last
                where[last] = i
        for e in added:
            where[e] = len(edges)
            edges.append(e)
        batches.append(
            [["remove_edge", u, v] for u, v in removed] + [["add_edge", u, v] for u, v in added]
        )
    return batches


def _rng(seed: int, stream: str) -> random.Random:
    """One generator per input stream, so every stream is a prefix of the
    same stream made for more rounds (a traced run replays the first
    rounds of the timed run's stream)."""
    return random.Random(f"{seed}/{stream}")


def build_inputs(name: str, seed: int, rounds: int, workdir: Path) -> Tuple[Inputs, List[str]]:
    """All inputs of ``name`` for ``rounds`` rounds; returns them and the
    server's ``--graph NAME=PATH`` specs."""
    w = WORKLOADS[name]
    graphs = {d: load_graph(d) for d in w.datasets}
    specs = []
    for d, g in graphs.items():
        path = workdir / f"{d}.json"
        write_graph_file(g, path)
        specs.append(f"{d}={path}")

    queries: Dict[str, List[dict]] = {}
    stream: List[List[tuple]] = []
    warm: List[tuple] = []
    batches: List[List[list]] = []
    if w.pool:
        (d,) = w.datasets
        queries[d] = distinct_queries(graphs[d], w.query_edges, w.pool, _rng(seed, "pool"))
        weights = [1.0 / (r + 1) ** w.zipf_s for r in range(w.pool)]
        draws = _rng(seed, "draws").choices(
            range(w.pool), weights, k=rounds * w.reads_per_round
        )
        if w.reads_per_write:
            batches = write_batches(graphs[d], rounds, w.ops_per_write, _rng(seed, "writes"))
            per = w.reads_per_write
            stream = [
                [("read", d, i) for i in draws[r * per:(r + 1) * per]] + [("write", d, r)]
                for r in range(rounds)
            ]
        else:
            warm = [("read", d, i) for i in range(w.pool)]
            stream = [[("read", d, i)] for i in draws]
    else:
        for d in w.datasets:
            queries[d] = distinct_queries(graphs[d], w.query_edges, rounds, _rng(seed, d))
        stream = [[("read", d, r) for d in w.datasets] for r in range(rounds)]
    return Inputs(w, graphs, queries, stream, warm, batches), specs
