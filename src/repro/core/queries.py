"""Query normalization shared by every ranking measure.

A *query* in this library is one of:

- a single node id (the paper's main case),
- a sequence of node ids (a multi-node query, e.g. the three term nodes of
  "spatio temporal data"; all nodes weighted equally),
- a mapping ``{node_id: weight}`` with finite, non-negative weights.

Multi-node queries are handled by the Linearity Theorem the paper inherits
from Jeh & Widom: every measure here is a linear function of its single-node
values, so a multi-node query is the weight-normalized combination.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.validation import check_node_id

Query = Union[int, Sequence[int], Mapping[int, float]]


def normalize_query(graph: DiGraph, query: Query) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a query into ``(nodes, weights)`` with weights summing to one.

    Raises ``ValueError`` on empty queries, out-of-range nodes, NaN,
    infinite or negative weights, or all-zero weights.  Duplicate nodes have
    their weights summed.
    """
    if isinstance(query, (int, np.integer)):
        node = check_node_id(int(query), graph.n_nodes, "query")
        return np.array([node], dtype=np.int64), np.array([1.0])

    if isinstance(query, Mapping):
        items = sorted(query.items())
        nodes = [check_node_id(int(n), graph.n_nodes, "query node") for n, _ in items]
        weights = np.array([float(w) for _, w in items])
        if weights.size == 0:
            raise ValueError("query must not be empty")
        # NaN compares False against everything, so finiteness is checked
        # first: a NaN or infinite weight would turn every score into NaN.
        if not np.all(np.isfinite(weights)):
            raise ValueError("query weights must be finite")
        if np.any(weights < 0):
            raise ValueError("query weights must be non-negative")
    else:
        nodes = [check_node_id(int(n), graph.n_nodes, "query node") for n in query]
        if not nodes:
            raise ValueError("query must not be empty")
        weights = np.ones(len(nodes))

    node_arr = np.asarray(nodes, dtype=np.int64)
    uniq, inverse = np.unique(node_arr, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, weights)
    total = merged.sum()
    if total <= 0:
        raise ValueError("query weights sum to zero")
    return uniq, merged / total


def teleport_vector(graph: DiGraph, query: Query) -> np.ndarray:
    """Dense teleport distribution ``s`` with ``s[q_i] = w_i`` for the query."""
    nodes, weights = normalize_query(graph, query)
    s = np.zeros(graph.n_nodes)
    s[nodes] = weights
    return s
