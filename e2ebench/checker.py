"""Answer checker of the end-to-end benchmark, written apart from the program.

It reads nothing but a response body, the query, and the benchmark's own
labels, edge set and degree table, and returns the list of problems found
(empty when the answer is sound):

* every embedding maps each query node to a data vertex with the same
  label, maps every query edge to a data edge, and is injective;
* there are at most ``k`` embeddings, pairwise distinct;
* ``coverage`` recounts exactly: distinct covered vertices, or
  ``sum(1 + deg(v))`` over them for ``weighted-vertex``;
* an ``optimal_reason`` of ``"disjoint"`` really is ``k`` pairwise
  vertex-disjoint embeddings.

``python3 e2ebench/checker.py`` runs :func:`self_test`, which shows that a
sound answer passes and that an answer corrupted in each of those ways is
rejected; ``run.py`` runs it before every benchmark run as well.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence


def check_answer(
    body: dict,
    query: dict,
    labels: Sequence[str],
    has_edge: Callable[[int, int], bool],
    degree: Callable[[int], int],
    k: int,
    objective: str = "vertex",
) -> List[str]:
    """Problems with one ``/v1/query`` response body (empty list: sound)."""
    problems: List[str] = []
    qlabels, qedges = query["labels"], query["edges"]
    q = len(qlabels)
    embeddings = body.get("embeddings")
    if not isinstance(embeddings, list):
        return ["embeddings missing"]
    if body.get("k") != k or body.get("q") != q:
        problems.append(f"k/q echo {body.get('k')}/{body.get('q')} != {k}/{q}")
    if body.get("objective") != objective:
        problems.append(f"objective {body.get('objective')!r} != {objective!r}")
    if len(embeddings) > k:
        problems.append(f"{len(embeddings)} embeddings > k={k}")
    if len({tuple(e) for e in embeddings}) != len(embeddings):
        problems.append("embeddings not pairwise distinct")
    n = len(labels)
    for i, emb in enumerate(embeddings):
        if len(emb) != q or any(not isinstance(v, int) or not 0 <= v < n for v in emb):
            problems.append(f"embedding {i} is not {q} vertex ids")
            continue
        if len(set(emb)) != q:
            problems.append(f"embedding {i} is not injective")
        if any(labels[v] != qlabels[u] for u, v in enumerate(emb)):
            problems.append(f"embedding {i} does not preserve labels")
        if any(not has_edge(emb[a], emb[b]) for a, b in qedges):
            problems.append(f"embedding {i} does not preserve edges")
    if problems:
        return problems
    covered = set()
    for emb in embeddings:
        covered.update(emb)
    if objective == "weighted-vertex":
        expected = sum(1 + degree(v) for v in covered)
    else:
        expected = len(covered)
    if body.get("coverage") != expected:
        problems.append(f"coverage {body.get('coverage')} != recount {expected}")
    if body.get("optimal_reason") == "disjoint":
        if len(embeddings) != k or sum(len(e) for e in embeddings) != len(covered):
            problems.append("'disjoint' claimed but embeddings are not k disjoint")
    return problems


def self_test() -> Dict[str, List[str]]:
    """Check sound answers and one corruption of each kind; raise on a miss."""
    # Two stars b-a-b around vertices 0 and 3, joined through a c vertex.
    labels = ["a", "b", "b", "a", "b", "b", "c"]
    edges = {(0, 1), (0, 2), (3, 4), (3, 5), (0, 6), (3, 6)}
    deg = [0] * len(labels)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    def has_edge(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edges

    query = {"labels": ["b", "a", "b"], "edges": [[0, 1], [1, 2]]}
    sound = {
        "embeddings": [[1, 0, 2], [4, 3, 5]],
        "k": 2,
        "q": 3,
        "coverage": 6,
        "objective": "vertex",
        "optimal_reason": "disjoint",
    }
    weighted = dict(sound, objective="weighted-vertex", coverage=sum(1 + deg[v] for v in range(6)))
    # corruption -> (patch, the problem it must raise)
    corrupt = {
        "label": ({"embeddings": [[1, 0, 6], [4, 3, 5]]}, "labels"),
        "edge": ({"embeddings": [[1, 0, 2], [4, 3, 1]], "coverage": 5}, "edges"),
        "injective": ({"embeddings": [[1, 0, 1], [4, 3, 5]]}, "injective"),
        "too_many": ({"embeddings": [[1, 0, 2], [4, 3, 5], [2, 0, 1]]}, "> k"),
        "duplicate": ({"embeddings": [[1, 0, 2], [1, 0, 2]], "coverage": 3}, "distinct"),
        "coverage": ({"coverage": 5}, "coverage"),
        "weighted_coverage": ({"objective": "weighted-vertex"}, "coverage"),
        "disjoint": ({"embeddings": [[1, 0, 2], [2, 0, 1]], "coverage": 3}, "disjoint"),
    }
    results = {}
    for name, body in (("sound", sound), ("sound_weighted", weighted)):
        results[name] = check_answer(
            body, query, labels, has_edge, deg.__getitem__, 2, body["objective"]
        )
        if results[name]:
            raise AssertionError(f"checker rejects a {name} answer: {results[name]}")
    for name, (patch, expected) in corrupt.items():
        body = dict(sound, **patch)
        found = check_answer(
            body, query, labels, has_edge, deg.__getitem__, 2, body["objective"]
        )
        if not any(expected in problem for problem in found):
            raise AssertionError(f"checker misses the {name!r} corruption: {found}")
        results[name] = found
    return results


if __name__ == "__main__":
    for case, found in self_test().items():
        print(f"{case:18s} {'accepted' if not found else 'rejected: ' + '; '.join(found)}")
    sys.exit(0)
