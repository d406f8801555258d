"""Tests for query normalization."""

import numpy as np
import pytest

from repro.core import normalize_query, teleport_vector
from repro.graph import graph_from_edges


@pytest.fixture()
def g():
    return graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


class TestNormalizeQuery:
    def test_single_int(self, g):
        nodes, weights = normalize_query(g, 3)
        assert nodes.tolist() == [3]
        assert weights.tolist() == [1.0]

    def test_numpy_int(self, g):
        nodes, _ = normalize_query(g, np.int64(2))
        assert nodes.tolist() == [2]

    def test_sequence_equal_weights(self, g):
        nodes, weights = normalize_query(g, [1, 3])
        assert nodes.tolist() == [1, 3]
        assert weights.tolist() == [0.5, 0.5]

    def test_mapping_weights_normalized(self, g):
        nodes, weights = normalize_query(g, {0: 1.0, 4: 3.0})
        assert nodes.tolist() == [0, 4]
        assert weights.tolist() == [0.25, 0.75]

    def test_duplicates_merged(self, g):
        nodes, weights = normalize_query(g, [2, 2, 3])
        assert nodes.tolist() == [2, 3]
        assert weights.tolist() == [pytest.approx(2 / 3), pytest.approx(1 / 3)]

    def test_empty_rejected(self, g):
        with pytest.raises(ValueError, match="empty"):
            normalize_query(g, [])
        with pytest.raises(ValueError, match="empty"):
            normalize_query(g, {})

    def test_out_of_range_rejected(self, g):
        with pytest.raises(ValueError):
            normalize_query(g, 99)
        with pytest.raises(ValueError):
            normalize_query(g, [0, 99])

    def test_negative_weights_rejected(self, g):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_query(g, {0: -1.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, g, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize_query(g, {0: bad})
        with pytest.raises(ValueError, match="finite"):
            normalize_query(g, {0: 1.0, 3: bad})

    def test_zero_weights_rejected(self, g):
        with pytest.raises(ValueError, match="zero"):
            normalize_query(g, {0: 0.0})


class TestTeleportVector:
    def test_dense_distribution(self, g):
        s = teleport_vector(g, {1: 1.0, 2: 1.0})
        assert s.shape == (5,)
        assert s.sum() == pytest.approx(1.0)
        assert s[1] == s[2] == 0.5
