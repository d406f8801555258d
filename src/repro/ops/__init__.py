"""Unified operator/kernel subsystem: one abstraction for every multiply.

Every ranking solve in this library — F-Rank, T-Rank, RoundTripRank(+),
batched or single-query, sequential or sharded across processes — reduces to
repeated products with one prepared CSR operator.  This package owns that
hot path:

- :class:`TransitionOperator` (:mod:`repro.ops.operator`) — the prepared
  oriented CSR (``P`` or ``P^T``) with cached per-dtype variants, damped
  copies, and per-kernel preparations; exposes ``matmat(x, out=,
  accumulate=)`` / ``matvec`` / ``rmatvec``.  :func:`get_operator` caches
  one per ``(graph, orientation)``.
- pluggable kernels (:mod:`repro.ops.kernels`) — ``scipy`` (default),
  ``blocked`` (cache-blocked column-slab matmat, bit-identical by
  construction), ``numba`` (JIT, when numba is importable), and ``threaded``
  (row-parallel over nnz-balanced contiguous row ranges — numba ``prange``
  or a shared thread pool driving the GIL-releasing ``csr_matvecs``;
  bit-identical for any ``REPRO_KERNEL_THREADS``); selected via
  the ``REPRO_KERNEL`` environment variable or :func:`set_kernel`, with
  capability probing and an :func:`active_kernel` report.
- operator-aware column reordering (:mod:`repro.ops.reorder`) — a
  degree/type-clustered symmetric permutation that shrinks the matmat
  gather window while preserving per-row accumulation order (bit-exact),
  via :meth:`TransitionOperator.reordered`.

Consumers: :mod:`repro.engine.batch` (all batch sweeps),
:mod:`repro.core.frank` / :mod:`repro.core.trank` (single-query paths),
:mod:`repro.graph.transition` (distribution stepping), the top-K oracle
(:mod:`repro.topk.naive`), and :mod:`repro.parallel` workers (which
reconstruct operators from shared memory, float32 variant included).
"""

from repro.ops.kernels import (
    HAS_CSR_MATVEC,
    HAS_CSR_MATVECS,
    HAS_NUMBA,
    KERNEL_ENV_VAR,
    KERNEL_THREADS_ENV_VAR,
    KERNELS,
    KernelReport,
    active_kernel,
    available_kernels,
    capabilities,
    kernel_threads,
    nnz_balanced_ranges,
    set_kernel,
    shutdown_thread_pool,
)
from repro.ops.operator import TransitionOperator, as_operator, get_operator
from repro.ops.reorder import ReorderedOperator, gather_permutation

__all__ = [
    "TransitionOperator",
    "get_operator",
    "as_operator",
    "active_kernel",
    "available_kernels",
    "capabilities",
    "set_kernel",
    "kernel_threads",
    "nnz_balanced_ranges",
    "shutdown_thread_pool",
    "gather_permutation",
    "ReorderedOperator",
    "KernelReport",
    "KERNELS",
    "KERNEL_ENV_VAR",
    "KERNEL_THREADS_ENV_VAR",
    "HAS_CSR_MATVEC",
    "HAS_CSR_MATVECS",
    "HAS_NUMBA",
]
