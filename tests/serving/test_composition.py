"""One composition routine: batcher, engine and escalated local top-k agree.

Every multi-node score is ``sum_i w_i * term_i`` over per-node F/T columns
(Proposition 2 for RoundTripRank, Eq. 12 for RoundTripRank+, linearity for
F/T).  :func:`repro.engine.batch.compose_scores` is the only place that sum
is computed, so for identical columns the three serving paths must produce
the same bits.  ``method="power"`` columns do not depend on which batch
solved them, so every path below sees identical columns.
"""

import numpy as np
import pytest

from repro.core import frank_vector, normalize_query, trank_vector
from repro.engine import frank_batch, roundtriprank_batch, roundtriprank_plus_batch, trank_batch
from repro.engine.batch import MEASURES, compose_scores
from repro.serving import ColumnCache, MicroBatcher
from repro.serving.topk import topk_select
from repro.topk import local_topk

ALPHA = 0.25
BETA = 0.3
K = 10


@pytest.fixture(scope="module")
def queries(small_bibnet):
    p = [int(v) for v in small_bibnet.paper_nodes[:7]]
    return [
        p[0],
        [p[1], p[1], p[2]],  # duplicate node: weights merge to 2/3, 1/3
        {p[3]: 2.0, p[4]: 0.0, p[5]: 1.0},  # zero-weight node
        {p[2]: 1.0, p[6]: 3.0},
    ]


def _batcher_rows(graph, measure, queries):
    batcher = MicroBatcher(
        graph,
        measure=measure,
        alpha=ALPHA,
        beta=BETA,
        max_batch=len(queries),
        cache=ColumnCache(alpha=ALPHA, method="power"),
    )
    futures = [batcher.submit(q) for q in queries]  # the last one flushes
    rows = np.array([future.result(timeout=5.0) for future in futures])
    batcher.close()
    return rows


def _dense_reference(graph, measure, query):
    nodes, weights = normalize_query(graph, query)
    total = np.zeros(graph.n_nodes)
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        f = frank_vector(graph, node, ALPHA)
        t = trank_vector(graph, node, ALPHA)
        term = {
            "frank": f,
            "trank": t,
            "roundtriprank": f * t,
            "roundtriprank_plus": f ** (1.0 - BETA) * t**BETA,
        }[measure]
        total += weight * term
    if measure == "roundtriprank":
        total /= total.sum()
    return total


@pytest.mark.parametrize("measure", MEASURES)
class TestPathsAgree:
    def test_batcher_matches_dense_reference(self, small_bibnet, queries, measure):
        graph = small_bibnet.graph
        rows = _batcher_rows(graph, measure, queries)
        for row, query in zip(rows, queries):
            np.testing.assert_allclose(
                row, _dense_reference(graph, measure, query), rtol=1e-12, atol=0.0
            )

    def test_engine_bit_equals_batcher(self, small_bibnet, queries, measure):
        graph = small_bibnet.graph
        rows = _batcher_rows(graph, measure, queries)
        if measure == "roundtriprank":
            engine = roundtriprank_batch(graph, queries, ALPHA, method="power")
        elif measure == "roundtriprank_plus":
            engine = roundtriprank_plus_batch(graph, queries, BETA, ALPHA, method="power")
        else:
            # frank_batch / trank_batch solve each teleport directly, which is
            # a composition only for single-node queries.
            solver = frank_batch if measure == "frank" else trank_batch
            engine = solver(graph, queries[:1], ALPHA, method="power")
            rows = rows[:1]
        assert engine.shape == (graph.n_nodes, rows.shape[0])
        assert np.array_equal(engine.T, rows)

    def test_escalated_local_bit_equals_batcher(self, small_bibnet, queries, measure):
        graph = small_bibnet.graph
        rows = _batcher_rows(graph, measure, queries)
        cache = ColumnCache(alpha=ALPHA, method="power")

        def cached_columns(kind, nodes):  # the gateway's hook: a list of columns
            return cache.get_many(graph, kind, nodes, ALPHA)

        for row, query in zip(rows, queries):
            want_idx, want_val = topk_select(row, K)
            for hook in (None, cached_columns):
                result = local_topk(
                    graph, query, K, ALPHA,
                    measure=measure, beta=BETA, work_budget=0,
                    exact_method="power", solve_columns=hook,
                )
                assert result.escalated
                assert np.array_equal(result.indices, want_idx)
                assert np.array_equal(result.scores, want_val)


class TestComposeScores:
    def test_block_is_query_major_and_contiguous(self):
        f = {0: np.array([1.0, 2.0, 3.0]), 1: np.array([0.5, 0.0, 1.0])}
        parsed = [
            (np.array([0]), np.array([1.0])),
            (np.array([0, 1]), np.array([0.25, 0.75])),
        ]
        block = compose_scores(parsed, "frank", f, None)
        assert block.shape == (2, 3) and block.flags.c_contiguous
        assert np.array_equal(block[0], f[0])
        assert np.array_equal(block[1], 0.25 * f[0] + 0.75 * f[1])

    def test_zero_mass_row_warns_and_stays_zero(self):
        ones, zeros = np.ones(4), np.zeros(4)
        parsed = [(np.array([0]), np.array([1.0])), (np.array([1]), np.array([1.0]))]
        with pytest.warns(RuntimeWarning, match="1 of 2 queries have zero total mass"):
            block = compose_scores(
                parsed, "roundtriprank", {0: ones, 1: zeros}, {0: ones, 1: ones},
                normalize=True, what="probe",
            )
        assert np.array_equal(block[0], np.full(4, 0.25))
        assert np.array_equal(block[1], zeros)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            compose_scores([(np.array([0]), np.array([1.0]))], "pagerank", {0: np.ones(2)}, None)


class _ZeroColumns:
    """Cache stand-in whose columns give every round trip zero mass."""

    def __init__(self, n):
        self.n = n

    def get_many(self, graph, kind, nodes, alpha=None):
        return [np.zeros(self.n) for _ in nodes]


class TestBatcherResults:
    def test_zero_mass_warning_reaches_batcher_callers(self, toy_graph):
        batcher = MicroBatcher(toy_graph, cache=_ZeroColumns(toy_graph.n_nodes), max_batch=8)
        future = batcher.submit(0)
        with pytest.warns(RuntimeWarning, match="MicroBatcher\\(roundtriprank\\)"):
            batcher.flush()
        assert np.array_equal(future.result(), np.zeros(toy_graph.n_nodes))
        batcher.close()

    @pytest.mark.parametrize("cached", [False, True])
    def test_full_vectors_are_fresh_arrays(self, toy_graph, cached):
        cache = ColumnCache(alpha=ALPHA) if cached else None
        batcher = MicroBatcher(toy_graph, alpha=ALPHA, cache=cache, max_batch=8)
        futures = [batcher.submit(q) for q in (0, 0, [1, 2])]
        batcher.flush()
        results = [future.result() for future in futures]
        for i, a in enumerate(results):
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        before = results[1].copy()
        results[0][:] = -1.0  # a caller scribbling on its own answer
        assert np.array_equal(results[1], before)
        batcher.close()
