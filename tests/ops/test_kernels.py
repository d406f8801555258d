"""Cross-kernel parity: every registered kernel computes the same bits.

``method="power"`` is the library's reference semantics, so the kernel (and
the worker count) must be a pure throughput knob.  The blocked kernel's
bit-exactness is by construction (slab accumulation replays the unblocked
addition order); these tests pin it empirically — with the slab machinery
*forced on* via shrunken block-size constants, so small test graphs really
exercise multi-slab accumulation.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ops
from repro.core import frank_vector, trank_vector
from repro.engine import frank_batch, power_iteration_batch, trank_batch
from repro.ops import kernels as k


def available_kernel_names():
    return [name for name, reason in ops.available_kernels().items() if reason is None]


@pytest.fixture()
def forced_slabs(monkeypatch):
    """Shrink the blocked kernel's tiling so tiny matrices get many slabs."""
    monkeypatch.setattr(k, "_SLAB_TARGET_BYTES", 512)
    monkeypatch.setattr(k, "_MIN_SLAB_COLS", 4)


@pytest.fixture()
def medium_csr():
    rng = np.random.default_rng(11)
    dense = rng.random((83, 83))
    dense[dense < 0.85] = 0.0
    matrix = sp.csr_matrix(dense)
    matrix.sort_indices()
    return matrix


class TestBlockedSlabbing:
    def test_prepare_builds_multiple_slabs_when_forced(self, forced_slabs, medium_csr):
        kernel = k.KERNELS["blocked"]
        state = kernel.prepare(medium_csr, 8)
        assert state is not None and len(state) > 1
        # The slabs partition the columns exactly.
        widths = [slab.shape[1] for _, slab in state]
        assert sum(widths) == medium_csr.shape[1]
        starts = [c0 for c0, _ in state]
        assert starts == sorted(starts)
        # And the slab nnz adds back up to the full matrix.
        assert sum(slab.nnz for _, slab in state) == medium_csr.nnz

    def test_prepare_single_pass_when_everything_fits(self, medium_csr):
        kernel = k.KERNELS["blocked"]
        # Default constants: an 83-row gather target fits L2 trivially.
        assert kernel.prepare(medium_csr, 8) is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_cols", [1, 3, 16])
    def test_blocked_matmat_bit_equals_scipy(self, forced_slabs, medium_csr, dtype, n_cols):
        if ops.available_kernels()["blocked"] is not None:  # pragma: no cover
            pytest.skip("blocked kernel unavailable on this scipy")
        rng = np.random.default_rng(7)
        matrix = medium_csr.astype(dtype)
        x = rng.random((83, n_cols)).astype(dtype)
        top = ops.as_operator(matrix)
        blocked = top.matmat(x, kernel="blocked")
        scipy_out = top.matmat(x, kernel="scipy")
        assert blocked.dtype == np.dtype(dtype)
        assert np.array_equal(blocked, scipy_out)
        assert np.array_equal(scipy_out, np.asarray(matrix @ x))

    def test_blocked_accumulate_bit_equals_scipy(self, forced_slabs, medium_csr):
        if ops.available_kernels()["blocked"] is not None:  # pragma: no cover
            pytest.skip("blocked kernel unavailable on this scipy")
        rng = np.random.default_rng(13)
        x = rng.random((83, 5))
        base = rng.random((83, 5))
        top = ops.as_operator(medium_csr)
        out_blocked = base.copy()
        top.matmat(x, out=out_blocked, accumulate=True, kernel="blocked")
        out_scipy = base.copy()
        top.matmat(x, out=out_scipy, accumulate=True, kernel="scipy")
        assert np.array_equal(out_blocked, out_scipy)


class TestWidthOneDispatch:
    """Width-1 products go to ``csr_matvec`` and keep ``csr_matvecs``' bits."""

    @pytest.fixture()
    def wide_rows_csr(self):
        # Long rows (~60 nnz each) so any change in accumulation order or
        # fused multiply-adds would show up in the low bits.
        rng = np.random.default_rng(23)
        matrix = sp.random(
            400, 400, density=0.15, random_state=rng, format="csr",
            data_rvs=lambda size: rng.standard_normal(size),
        )
        matrix.sort_indices()
        return matrix

    @staticmethod
    def _matvecs_reference(matrix, x, base):
        out = base.copy()
        n_row, n_col = matrix.shape
        k._csr_matvecs(
            n_row, n_col, 1, matrix.indptr, matrix.indices, matrix.data,
            x.ravel(), out.ravel(),
        )
        return out

    @pytest.mark.parametrize("kernel", available_kernel_names())
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_width_one_bit_equals_csr_matvecs(
        self, forced_slabs, wide_rows_csr, monkeypatch, kernel, dtype, accumulate
    ):
        monkeypatch.setenv(k.KERNEL_THREADS_ENV_VAR, "3")  # several row ranges
        rng = np.random.default_rng(29)
        matrix = wide_rows_csr.astype(dtype)
        x = rng.standard_normal((400, 1)).astype(dtype)
        base = rng.standard_normal((400, 1)).astype(dtype)
        top = ops.as_operator(matrix)
        if accumulate:
            out = base.copy()
            top.matmat(x, out=out, accumulate=True, kernel=kernel)
            expected = self._matvecs_reference(matrix, x, base)
        else:
            out = top.matmat(x, kernel=kernel)
            expected = self._matvecs_reference(matrix, x, np.zeros_like(base))
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, expected)

    def test_width_one_uses_csr_matvec(self, medium_csr, monkeypatch):
        calls = []
        real = k._csr_matvec

        def spy(*args):
            calls.append(len(args))
            real(*args)

        monkeypatch.setattr(k, "_csr_matvec", spy)
        top = ops.as_operator(medium_csr)
        top.matmat(np.ones((83, 1)), kernel="scipy")
        assert calls == [7]
        top.matmat(np.ones((83, 2)), kernel="scipy")
        assert calls == [7]  # wider blocks stay on csr_matvecs


class TestSolverParityAcrossKernels:
    def test_power_batch_bit_exact_across_kernels(self, forced_slabs, medium_csr):
        # Row-normalize so the fixed point is a true substochastic solve.
        from repro.graph.transition import row_normalize

        operator = row_normalize(medium_csr).T.tocsr()
        rng = np.random.default_rng(5)
        s = np.zeros((83, 6))
        for j in range(6):
            s[rng.integers(0, 83), j] = 1.0
        results = {}
        for name in available_kernel_names():
            top = ops.TransitionOperator.from_csr(operator)
            ops.set_kernel(name)
            try:
                results[name] = power_iteration_batch(top, s, 0.25, method="power")
            finally:
                ops.set_kernel(None)
        reference = results.pop("scipy")
        for name, result in results.items():
            assert np.array_equal(result, reference), f"kernel {name} diverged"

    @pytest.mark.parametrize("kernel", ["scipy", "blocked"])
    def test_graph_batches_match_single_query_under_kernel(self, toy_graph, kernel, monkeypatch):
        if ops.available_kernels()[kernel] is not None:  # pragma: no cover
            pytest.skip(f"{kernel} kernel unavailable")
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, kernel)
        queries = [0, [0, 1], 7]
        f = frank_batch(toy_graph, queries, method="power")
        t = trank_batch(toy_graph, queries, method="power")
        for j, q in enumerate(queries):
            assert np.array_equal(f[:, j], frank_vector(toy_graph, q))
            assert np.array_equal(t[:, j], trank_vector(toy_graph, q))

    def test_auto_method_stays_within_tol_under_blocked(self, small_bibnet, monkeypatch):
        if ops.available_kernels()["blocked"] is not None:  # pragma: no cover
            pytest.skip("blocked kernel unavailable")
        graph = small_bibnet.graph
        queries = list(range(8))
        power = frank_batch(graph, queries, method="power")
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "blocked")
        auto = frank_batch(graph, queries, method="auto")
        assert np.abs(auto - power).max() < 1e-10

    def test_power_workers_bit_exact_under_blocked_kernel(self, small_bibnet, monkeypatch):
        # Worker count x kernel selection: both must be pure throughput
        # knobs.  The parent runs the blocked kernel; pool workers may run
        # whatever REPRO_KERNEL they inherited at spawn — bit-exactness
        # makes the combination indistinguishable by construction.
        graph = small_bibnet.graph
        queries = list(range(12))
        sequential = frank_batch(graph, queries, method="power")
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "blocked")
        sharded = frank_batch(graph, queries, method="power", workers=2)
        assert np.array_equal(sharded, sequential)


class TestKernelSelection:
    def test_default_is_scipy(self, monkeypatch):
        monkeypatch.delenv(ops.KERNEL_ENV_VAR, raising=False)
        report = ops.active_kernel()
        assert report.name == "scipy"
        assert report.requested is None
        assert not report.is_fallback

    def test_env_selects_blocked(self, monkeypatch):
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "blocked")
        report = ops.active_kernel()
        if ops.available_kernels()["blocked"] is None:
            assert report.name == "blocked"
            assert not report.is_fallback
        else:  # pragma: no cover - scipy internals moved
            assert report.name == "scipy"
            assert report.is_fallback

    def test_set_kernel_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "blocked")
        ops.set_kernel("scipy")
        try:
            assert ops.active_kernel().name == "scipy"
        finally:
            ops.set_kernel(None)
        assert ops.active_kernel().name == "blocked"

    def test_set_kernel_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            ops.set_kernel("asic")

    def test_per_call_kernel_argument(self, toy_graph, monkeypatch):
        monkeypatch.delenv(ops.KERNEL_ENV_VAR, raising=False)
        top = ops.get_operator(toy_graph, transpose=True)
        x = np.ones((toy_graph.n_nodes, 3))
        assert np.array_equal(top.matmat(x, kernel="blocked"), top.matmat(x))
