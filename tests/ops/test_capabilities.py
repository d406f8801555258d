"""Capability probing: the fast paths must be *visibly* active in CI.

The scipy kernel's accumulate form and the blocked kernel both depend on the
private ``scipy.sparse._sparsetools.csr_matvecs`` entry point, and width-1
products on its single-vector sibling ``csr_matvec``.  The import
is feature-detected (an upstream rename degrades silently to the pure-``@``
fallback in production), so this module pins the expectation in CI: if a
scipy upgrade drops the symbol, these tests fail loudly and the dependency
gets fixed deliberately instead of rotting silently.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ops
from repro.ops import kernels as k


class TestCsrMatvecsCapability:
    def test_fast_path_is_active_on_this_scipy(self):
        # Deliberate hard assert, not a skip: CI runs a scipy version where
        # the private entry point exists, and we want its disappearance to
        # be a red build, not a silent perf regression.
        assert k.HAS_CSR_MATVECS, (
            "scipy.sparse._sparsetools.csr_matvecs vanished from this scipy "
            f"({sp.__name__} {__import__('scipy').__version__}); the scipy "
            "kernel fell back to the allocating path and the blocked kernel "
            "is disabled — port the accumulate call before shipping"
        )

    def test_width_one_fast_path_is_active_on_this_scipy(self):
        # Same deliberate hard assert for the single-vector entry point that
        # width-1 products use: without it every escalation solve's sweeps
        # run about 2x slower, with no other visible symptom.
        assert k.HAS_CSR_MATVEC, (
            "scipy.sparse._sparsetools.csr_matvec vanished from this scipy "
            f"({__import__('scipy').__version__}); width-1 matmat fell back to "
            "csr_matvecs — port the single-vector call before shipping"
        )

    def test_capabilities_report_matches_flags(self):
        caps = ops.capabilities()
        assert caps["csr_matvecs"] == k.HAS_CSR_MATVECS
        assert caps["csr_matvec"] == k.HAS_CSR_MATVEC
        assert caps["numba"] == k.HAS_NUMBA
        assert caps["l2_bytes"] > 0

    def test_accumulate_form_matches_scipy_product(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(40, 40, density=0.2, random_state=5, format="csr")
        x = rng.random((40, 7))
        out = np.zeros((40, 7))
        k._spmm_accumulate(matrix, x, out)
        assert np.array_equal(out, matrix @ x)


class TestKernelAvailability:
    def test_scipy_kernel_always_available(self):
        assert ops.available_kernels()["scipy"] is None

    def test_blocked_kernel_gates_on_csr_matvecs(self):
        reason = ops.available_kernels()["blocked"]
        if k.HAS_CSR_MATVECS:
            assert reason is None
        else:  # pragma: no cover - scipy internals moved
            assert "csr_matvecs" in reason

    def test_numba_kernel_gates_on_import(self):
        reason = ops.available_kernels()["numba"]
        if k.HAS_NUMBA:  # pragma: no cover - optional dependency
            assert reason is None
        else:
            assert "numba" in reason

    def test_unavailable_request_falls_back_with_reason(self, monkeypatch):
        monkeypatch.setattr(k, "HAS_NUMBA", False)
        kernel, report = k.resolve("numba")
        assert kernel.name == "scipy"
        assert report.is_fallback
        assert report.requested == "numba"
        assert "numba" in report.fallback_reason

    def test_unknown_env_kernel_falls_back_with_reason(self, monkeypatch):
        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "fpga")
        report = ops.active_kernel()
        assert report.name == "scipy"
        assert report.requested == "fpga"
        assert "unknown kernel" in report.fallback_reason

    def test_fallback_multiply_warns_once_per_process(self, toy_graph, monkeypatch):
        import warnings

        monkeypatch.setenv(ops.KERNEL_ENV_VAR, "fpga")
        monkeypatch.setattr(k, "_warned_fallbacks", set())
        top = ops.get_operator(toy_graph, transpose=True)
        x = np.ones((toy_graph.n_nodes, 2))
        with pytest.warns(RuntimeWarning, match="unknown kernel"):
            top.matmat(x)
        with warnings.catch_warnings():
            # Solver sweeps resolve per multiply; the degradation must not
            # warn again (it would be once per sweep otherwise).
            warnings.simplefilter("error")
            top.matmat(x)
