"""Tests for RankGateway routing, lane lifecycle, and shared-cache reuse."""

import numpy as np
import pytest

from repro.core import frank_vector, roundtriprank, roundtriprank_plus, trank_vector
from repro.gateway import LaneKey, RankGateway, Shed
from repro.serving import ColumnCache


class TestRouting:
    @pytest.mark.parametrize(
        "measure,reference",
        [
            ("frank", lambda g, q: frank_vector(g, q)),
            ("trank", lambda g, q: trank_vector(g, q)),
            ("roundtriprank", lambda g, q: roundtriprank(g, q)),
            ("roundtriprank_plus", lambda g, q: roundtriprank_plus(g, q, beta=0.3)),
        ],
    )
    def test_measure_parity_with_direct_solvers(self, toy_graph, measure, reference):
        gateway = RankGateway(toy_graph, beta=0.3)
        result = gateway.ask(4, measure=measure)
        assert np.allclose(result, reference(toy_graph, 4), atol=1e-9)
        gateway.close()

    def test_alpha_routes_to_distinct_lanes(self, toy_graph):
        gateway = RankGateway(toy_graph)
        a = gateway.ask(0, alpha=0.25)
        b = gateway.ask(0, alpha=0.5)
        assert not np.allclose(a, b)
        assert len(gateway.lanes()) == 2
        gateway.close()

    def test_multi_graph_routing(self, toy_graph, line_graph):
        gateway = RankGateway({"toy": toy_graph, "line": line_graph})
        toy_scores = gateway.ask(0, graph="toy")
        line_scores = gateway.ask(0, graph="line")
        assert toy_scores.shape == (toy_graph.n_nodes,)
        assert line_scores.shape == (line_graph.n_nodes,)
        with pytest.raises(ValueError, match="graph name required"):
            gateway.submit(0)
        with pytest.raises(KeyError, match="unknown graph"):
            gateway.submit(0, graph="nope")
        gateway.close()

    def test_add_graph_after_construction(self, toy_graph, line_graph):
        gateway = RankGateway({"toy": toy_graph})
        gateway.add_graph("line", line_graph)
        assert gateway.ask(1, graph="line").shape == (line_graph.n_nodes,)
        with pytest.raises(ValueError, match="already registered"):
            gateway.add_graph("line", line_graph)
        gateway.close()

    def test_topk_and_multinode_queries(self, toy_graph):
        gateway = RankGateway(toy_graph)
        indices, values = gateway.ask(2, k=4)
        full = roundtriprank(toy_graph, 2)
        expected = np.argsort(-full, kind="stable")[:4]
        assert np.array_equal(indices, expected)
        assert np.allclose(values, full[expected], atol=1e-9)
        combined = gateway.ask({0: 1.0, 1: 3.0})
        assert np.allclose(
            combined, roundtriprank(toy_graph, {0: 1.0, 1: 3.0}), atol=1e-9
        )
        gateway.close()

    def test_invalid_inputs_raise_not_shed(self, toy_graph):
        gateway = RankGateway(toy_graph)
        with pytest.raises(ValueError):
            gateway.submit(toy_graph.n_nodes + 1)  # out-of-range node
        with pytest.raises(ValueError):
            gateway.submit(0, measure="pagerank")
        with pytest.raises(ValueError):
            gateway.submit(0, k=0)
        assert gateway.snapshot().n_shed == 0  # caller bugs are not load
        gateway.close()

    @pytest.mark.parametrize("local_topk", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_raise_not_shed(self, toy_graph, local_topk, bad):
        from repro.gateway import AdmissionConfig

        gateway = RankGateway(
            toy_graph,
            admission=AdmissionConfig(rate=1e-6, burst=1),
            local_topk=local_topk,
        )
        with pytest.raises(ValueError, match="finite"):
            gateway.submit({0: bad, 1: 1.0}, k=3)
        assert gateway.snapshot().n_admitted == 0
        assert gateway.snapshot().n_shed == 0
        # The rejected query consumed no rate token: the one burst token
        # still admits a valid query.
        result = gateway.submit(0, k=3)
        assert not isinstance(result, Shed)
        gateway.flush_all()
        assert result.result(timeout=5.0)[0].shape == (3,)
        gateway.close()

    def test_invalid_k_never_consumes_a_rate_token(self, toy_graph):
        from repro.gateway import AdmissionConfig, Shed

        gateway = RankGateway(toy_graph, admission=AdmissionConfig(rate=1.0, burst=1))
        with pytest.raises(ValueError):
            gateway.submit(0, k=0)  # must raise *before* admission runs
        result = gateway.submit(0)  # the single token must still be there
        assert not isinstance(result, Shed)
        gateway.flush_all()
        assert result.result(timeout=5.0) is not None
        gateway.close()

    def test_construction_validation(self, toy_graph):
        with pytest.raises(ValueError, match="max_lanes"):
            RankGateway(toy_graph, max_lanes=0)
        with pytest.raises(ValueError, match="at least one graph"):
            RankGateway({})


class TestLanes:
    def test_lanes_created_lazily(self, toy_graph):
        gateway = RankGateway(toy_graph)
        assert gateway.lanes() == []
        gateway.ask(0)
        gateway.ask(1, measure="frank")
        assert set(gateway.lanes()) == {
            LaneKey("default", "roundtriprank", gateway.cache.alpha),
            LaneKey("default", "frank", gateway.cache.alpha),
        }
        gateway.close()

    def test_lane_count_is_bounded_lru_evicted(self, toy_graph):
        gateway = RankGateway(toy_graph, max_lanes=2)
        gateway.ask(0, alpha=0.1)
        gateway.ask(0, alpha=0.2)
        gateway.ask(0, alpha=0.1)  # touch 0.1: 0.2 is now LRU
        gateway.ask(0, alpha=0.3)  # evicts the 0.2 lane
        keys = gateway.lanes()
        assert len(keys) == 2
        assert LaneKey("default", "roundtriprank", 0.2) not in keys
        gateway.close()

    def test_evicted_lane_resolves_its_futures(self, toy_graph):
        gateway = RankGateway(toy_graph, max_lanes=1, max_batch=1000)
        pending = gateway.submit(0, alpha=0.1)
        assert not isinstance(pending, Shed)
        assert not pending.done()
        other = gateway.submit(0, alpha=0.2)  # evicts+closes the 0.1 lane
        assert pending.done()  # close flushed it: nothing stranded
        assert np.allclose(
            pending.result(), roundtriprank(toy_graph, 0, alpha=0.1), atol=1e-9
        )
        gateway.flush_all()
        assert other.result(timeout=5.0) is not None
        gateway.close()

    def test_lanes_share_one_cache(self, toy_graph):
        cache = ColumnCache()
        gateway = RankGateway(toy_graph, cache=cache)
        gateway.ask(5)  # roundtriprank lane solves f and t columns of node 5
        misses = cache.cache_info().misses
        gateway.ask(5, measure="frank")  # new lane, same cache: pure hit
        info = cache.cache_info()
        assert info.misses == misses
        assert info.hits >= 1
        gateway.close()

    def test_started_gateway_starts_new_lanes(self, toy_graph):
        with RankGateway(toy_graph, max_delay=0.005, max_batch=1000) as gateway:
            future = gateway.submit(3)  # lane created after start()
            assert not isinstance(future, Shed)
            result = future.result(timeout=5.0)  # deadline thread flushes it
        assert np.allclose(result, roundtriprank(toy_graph, 3), atol=1e-9)

    def test_close_is_idempotent_and_terminal(self, toy_graph):
        gateway = RankGateway(toy_graph)
        gateway.ask(0)
        gateway.close()
        gateway.close()
        assert gateway.closed
        assert gateway.lanes() == []
        with pytest.raises(RuntimeError, match="closed"):
            gateway.start()


class TestStats:
    def test_latency_quantiles_recorded_per_lane(self, toy_graph):
        gateway = RankGateway(toy_graph)
        for q in range(4):
            gateway.ask(q)
        gateway.ask(0, measure="frank")
        snap = gateway.snapshot()
        rtr_lane = ("default", "roundtriprank", gateway.cache.alpha)
        frank_lane = ("default", "frank", gateway.cache.alpha)
        assert snap.lanes[rtr_lane].count == 4
        assert snap.lanes[frank_lane].count == 1
        stats = snap.lanes[rtr_lane]
        assert 0.0 <= stats.p50_ms <= stats.p90_ms <= stats.p99_ms <= stats.max_ms
        gateway.close()

    def test_snapshot_is_jsonable(self, toy_graph):
        import json

        gateway = RankGateway(toy_graph)
        gateway.ask(0, tenant="acme")
        payload = gateway.snapshot().to_jsonable()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["n_admitted"] == 1
        assert round_tripped["admitted_by_tenant"] == {"acme": 1}
        assert list(round_tripped["lanes"]) == [
            f"default/roundtriprank/{gateway.cache.alpha}"
        ]
        gateway.close()

    def test_lane_keys_round_trip_documented_format(self, toy_graph):
        """Flattened lane keys follow graph/measure/alpha and parse back."""
        import json

        from repro.gateway import lane_key_from_str, lane_key_to_str

        gateway = RankGateway({"corpus/2024": toy_graph})
        gateway.ask(0, alpha=0.25)
        gateway.ask(0, measure="frank", alpha=0.5)
        snapshot = gateway.snapshot()
        payload = json.loads(json.dumps(snapshot.to_jsonable()))
        assert sorted(payload["lanes"]) == [
            "corpus/2024/frank/0.5",
            "corpus/2024/roundtriprank/0.25",
        ]
        # Graph names containing "/" survive the rsplit-based parse.
        for flat in payload["lanes"]:
            lane = lane_key_from_str(flat)
            assert lane in snapshot.lanes
            assert lane_key_to_str(lane) == flat
        gateway.close()

    def test_shed_rate(self, toy_graph):
        from repro.gateway import AdmissionConfig

        gateway = RankGateway(
            toy_graph, admission=AdmissionConfig(max_queue_depth=1), max_batch=1000
        )
        results = [gateway.submit(q) for q in range(4)]
        snap = gateway.snapshot()
        assert snap.n_admitted == 1
        assert snap.n_shed == 3
        assert snap.shed_rate == pytest.approx(0.75)
        gateway.flush_all()
        for r in results:
            if not isinstance(r, Shed):
                r.result(timeout=5.0)
        gateway.close()
