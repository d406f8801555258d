"""Pluggable CSR matmat kernels behind :class:`repro.ops.TransitionOperator`.

Every F-Rank / T-Rank / RoundTripRank solve reduces to repeated
``operator @ X`` sweeps over one CSR matrix, so the sparse matmat kernel is
the load-bearing hot path of the whole library.  This module isolates it
behind a small registry of interchangeable kernels:

- ``scipy`` (default) — scipy's CSR matmat, routed through the
  accumulate-form ``csr_matvecs`` sparsetools entry point when the running
  scipy still exposes it (no per-sweep allocation or zeroing), with a silent
  pure-``@`` fallback otherwise.  Width-1 products take the single-vector
  ``csr_matvec`` form of the same accumulation (bit-identical, about twice
  as fast at one vector); every kernel that accumulates through
  ``csr_matvecs`` shares that dispatch.
- ``blocked`` — a cache-blocked CSR matmat: the operator is pre-sliced into
  vertical column slabs sized so that each slab's gathered ``X`` rows fit in
  (half of) the L2 cache, and the slabs are accumulated in ascending column
  order.  Because ``csr_matvecs`` adds each ``a_ij * X[j, :]`` contribution
  into the output individually and CSR rows store ascending column indices,
  slab-order accumulation performs *exactly* the same sequence of float
  additions as the unblocked kernel — the blocked result is bit-identical,
  only the memory traffic changes.  Requires the ``csr_matvecs`` capability
  (without it the bit-exact accumulate form is impossible, so the kernel
  reports itself unavailable rather than silently changing results).
- ``numba`` — the same flat accumulation loop JIT-compiled with numba,
  registered only when numba is importable (it is an optional dependency;
  this container/CI image may not ship it).
- ``threaded`` — the row-parallel kernel: CSR *rows* are split into
  nnz-balanced contiguous ranges (computed once from ``indptr`` and cached
  on the operator like the blocked kernel's slabs) and the ranges run
  concurrently — through a numba ``prange`` when numba is importable, else
  through a shared :class:`~concurrent.futures.ThreadPoolExecutor` whose
  tasks call the GIL-releasing ``csr_matvecs`` on one contiguous row slice
  each, so the kernel exists on every host.  Each output row is produced by
  exactly one range with the per-row accumulation order unchanged, so the
  result is **bit-identical** to ``scipy`` for any thread count or
  partition.  Thread count: ``REPRO_KERNEL_THREADS`` (default: all cores).

Kernel selection: the ``REPRO_KERNEL`` environment variable or
:func:`set_kernel`; an unavailable or unknown request falls back to
``scipy`` and the fallback is visible in :func:`active_kernel`'s report.
Bit-exactness across kernels is asserted by the cross-kernel parity suite
(``tests/ops``), so ``method="power"`` results never depend on the kernel
(or worker-count) choice.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# --------------------------------------------------------------------------- #
# Capability probing
# --------------------------------------------------------------------------- #

try:  # accumulate-form CSR products: no per-sweep allocation or zeroing
    from scipy.sparse import _sparsetools as _sptools
except ImportError:  # pragma: no cover - scipy internals moved
    _sptools = None

_csr_matvecs = getattr(_sptools, "csr_matvecs", None)
_csr_matvec = getattr(_sptools, "csr_matvec", None)

#: Whether scipy still exposes the private ``csr_matvecs`` accumulate-form
#: entry point.  ``tests/ops/test_capabilities.py`` asserts this is ``True``
#: on the CI scipy version, so an upstream rename fails loudly in CI instead
#: of silently degrading production to the allocating fallback.
HAS_CSR_MATVECS = _csr_matvecs is not None

#: Whether scipy still exposes ``csr_matvec``, the single-vector form of the
#: same accumulation, which width-1 products use (about 2x faster than
#: ``csr_matvecs`` at one vector).  Asserted in CI like ``HAS_CSR_MATVECS``.
HAS_CSR_MATVEC = _csr_matvec is not None

try:
    import numba as _numba
except ImportError:  # numba is optional; the kernel gates on this
    _numba = None

HAS_NUMBA = _numba is not None

#: Fallback L2 size when the sysfs probe is unavailable (non-Linux).
_DEFAULT_L2_BYTES = 1 << 21


def _probe_l2_bytes() -> int:
    """Per-core L2 cache size in bytes (env override, sysfs, then default).

    ``REPRO_L2_BYTES`` overrides for benchmarking block-size sensitivity.
    """
    override = os.environ.get("REPRO_L2_BYTES", "")
    if override:
        try:
            value = int(override)
            if value > 0:
                return value
        except ValueError:
            pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            text = fh.read().strip()
        if text.endswith("K"):
            return int(text[:-1]) << 10
        if text.endswith("M"):
            return int(text[:-1]) << 20
        return int(text)
    except (OSError, ValueError):  # pragma: no cover - non-Linux / exotic sysfs
        return _DEFAULT_L2_BYTES


L2_BYTES = _probe_l2_bytes()

#: A slab's gathered ``X`` rows should occupy at most this many bytes, so
#: they stay L2-resident while the CSR arrays and output rows stream
#: through.  The full L2 (not a fraction) measured best on the bench
#: BibNet: the streamed arrays evict little of the gather window, and
#: smaller slabs pay their per-slab row-scan overhead more often.
_SLAB_TARGET_BYTES = L2_BYTES

#: Never slice slabs thinner than this many columns: below it the per-slab
#: row-scan overhead (O(n_rows) per slab) dominates any locality win.
_MIN_SLAB_COLS = 256


#: Environment variable selecting the ``threaded`` kernel's thread count
#: (and the default shard count of :mod:`repro.parallel.rows`).
KERNEL_THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"


def kernel_threads() -> int:
    """Threads the ``threaded`` kernel splits rows across (>= 1).

    ``REPRO_KERNEL_THREADS`` overrides; the default is every core
    (``os.cpu_count()``).  Re-read on every preparation, so tests and
    benches can sweep thread counts without rebuilding operators.
    """
    env = os.environ.get(KERNEL_THREADS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    return os.cpu_count() or 1


def capabilities() -> dict:
    """Capability flags the kernel registry probed at import."""
    return {
        "csr_matvecs": HAS_CSR_MATVECS,
        "csr_matvec": HAS_CSR_MATVEC,
        "numba": HAS_NUMBA,
        "l2_bytes": L2_BYTES,
        "kernel_threads": kernel_threads(),
    }


def nnz_balanced_ranges(indptr, n_parts: int) -> "list[tuple[int, int]]":
    """Contiguous row ranges of roughly equal nnz, covering every row.

    The partition of the row-parallel lever: ``threaded``-kernel threads and
    :mod:`repro.parallel.rows` shards each take one contiguous range, so a
    hub-heavy graph (BibNet degree distributions are Zipf-ish) still spreads
    its nonzeros evenly instead of handing one thread all the hot rows.
    Cut points come from ``searchsorted`` on ``indptr`` at the nnz quantiles;
    degenerate targets (one row holding most of the nnz) collapse, so the
    result may have fewer than ``n_parts`` ranges — never an empty one.
    Partition boundaries never affect results: each output row belongs to
    exactly one range and rows are independent in CSR matmat.
    """
    n_rows = int(len(indptr)) - 1
    if n_rows <= 0:
        return [(0, 0)] if n_rows == 0 else []
    n_parts = max(1, min(int(n_parts), n_rows))
    if n_parts == 1:
        return [(0, n_rows)]
    total = int(indptr[-1])
    if total == 0:
        edges = np.linspace(0, n_rows, n_parts + 1).astype(np.int64)
    else:
        targets = np.arange(1, n_parts) * (total / n_parts)
        interior = np.searchsorted(indptr, targets, side="left")
        edges = np.concatenate(([0], interior, [n_rows]))
    edges = np.unique(np.clip(edges, 0, n_rows))
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


# --------------------------------------------------------------------------- #
# The shared kernel thread pool (the ``threaded`` fallback path)
# --------------------------------------------------------------------------- #

#: Thread-name prefix of the kernel pool's workers.  The sanitizer's
#: per-module thread-leak check exempts this prefix: like the process pool,
#: the kernel pool is process-wide by design and torn down by
#: :func:`shutdown_thread_pool` / ``atexit``, not by each test module.
KERNEL_THREAD_NAME_PREFIX = "repro-kernel"

_thread_pool: "ThreadPoolExecutor | None" = None
_thread_pool_size = 0
_thread_pool_lock = threading.Lock()


def _kernel_executor(n_threads: int) -> ThreadPoolExecutor:
    """The shared kernel pool, grown (never shrunk) to ``n_threads``."""
    global _thread_pool, _thread_pool_size
    with _thread_pool_lock:
        if _thread_pool is None or _thread_pool_size < n_threads:
            old, _thread_pool = _thread_pool, ThreadPoolExecutor(
                max_workers=n_threads, thread_name_prefix=KERNEL_THREAD_NAME_PREFIX
            )
            _thread_pool_size = n_threads
        else:
            old = None
        pool = _thread_pool
    if old is not None:
        # Outgrown pool: let in-flight row slices finish, don't block here.
        old.shutdown(wait=False)
    return pool


def shutdown_thread_pool() -> None:
    """Join and drop the kernel thread pool (idempotent; atexit-registered).

    The next ``threaded`` matmat simply starts a fresh pool, so tests can
    call this to assert no kernel threads outlive an explicit teardown.
    """
    global _thread_pool, _thread_pool_size
    with _thread_pool_lock:
        pool, _thread_pool = _thread_pool, None
        _thread_pool_size = 0
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(shutdown_thread_pool)


def _csr_accumulate(n_row, n_col, n_vec, indptr, indices, data, xflat, outflat) -> None:
    """``out += A @ x`` on flat C-order buffers (requires ``csr_matvecs``).

    One vector goes to ``csr_matvec``: it adds each row's products into the
    output in the same order as ``csr_matvecs``, so the result is
    bit-identical, without the per-nonzero vector-loop overhead.
    """
    if n_vec == 1 and HAS_CSR_MATVEC:
        _csr_matvec(n_row, n_col, indptr, indices, data, xflat, outflat)
    else:
        _csr_matvecs(n_row, n_col, n_vec, indptr, indices, data, xflat, outflat)


def _spmm_accumulate(matrix: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """``out += matrix @ x`` (requires the ``csr_matvecs`` capability)."""
    n_row, n_col = matrix.shape
    _csr_accumulate(
        n_row, n_col, x.shape[1],
        matrix.indptr, matrix.indices, matrix.data,
        x.ravel(), out.ravel(),
    )


# --------------------------------------------------------------------------- #
# Kernel implementations
# --------------------------------------------------------------------------- #


class Kernel:
    """One matmat implementation.  Stateless; per-matrix state lives in the
    owning :class:`repro.ops.TransitionOperator` via :meth:`prepare`."""

    #: registry name (the value accepted by ``REPRO_KERNEL``).
    name: str = ""

    def available(self) -> "tuple[bool, str | None]":
        """``(usable, reason_if_not)`` under the probed capabilities."""
        return True, None

    def prepare(self, matrix: sp.csr_matrix, n_cols: int):
        """Build (cacheable) per-matrix state for ``n_cols``-wide products."""
        return None

    def state_token(self):
        """Hashable tag folded into the prepared-state cache key.

        Kernels whose prepared state depends on anything besides the matrix
        and ``n_cols`` (the ``threaded`` kernel's row partition depends on
        the thread count) return that dependency here so a changed knob
        invalidates the cache instead of replaying a stale partition.
        """
        return None

    def matmat(self, state, matrix: sp.csr_matrix, x: np.ndarray, out: np.ndarray,
               accumulate: bool) -> None:
        """``out (+)= matrix @ x``; must write every element of ``out``."""
        raise NotImplementedError


class ScipyKernel(Kernel):
    """scipy's CSR matmat (the historical behavior, and the default).

    With the ``csr_matvecs`` capability the product accumulates straight into
    ``out`` (no temporary); without it, falls back to the allocating ``@``.
    """

    name = "scipy"

    def matmat(self, state, matrix, x, out, accumulate):
        if HAS_CSR_MATVECS:
            if not accumulate:
                out[...] = 0
            _spmm_accumulate(matrix, x, out)
        elif accumulate:  # pragma: no cover - scipy internals moved
            out += matrix @ x
        else:  # pragma: no cover - scipy internals moved
            out[...] = matrix @ x


class BlockedKernel(Kernel):
    """Cache-blocked CSR matmat: column slabs sized to keep ``X`` rows in L2.

    The gather ``X[indices[jj], :]`` is what makes scipy's matmat memory-bound
    on large graphs: successive rows of ``X`` are touched in (near-)random
    order over an array far larger than L2.  Slicing the operator into
    vertical slabs ``A = [A_1 | A_2 | ...]`` and accumulating
    ``out += A_k @ X[rows_k]`` slab by slab bounds each pass's gather window
    to ``slab_cols * n_cols * itemsize`` bytes — sized to the L2 — so
    gathered rows are served from cache instead of DRAM.

    Accumulating the slabs in ascending column order replays the exact
    per-element addition sequence of the unblocked ``csr_matvecs`` (CSR rows
    are sorted by column), so results are bit-identical to the ``scipy``
    kernel.  That guarantee *requires* the accumulate-form entry point, hence
    the capability gate.
    """

    name = "blocked"

    def available(self):
        if not HAS_CSR_MATVECS:
            return False, (
                "scipy.sparse._sparsetools.csr_matvecs is unavailable; the "
                "blocked kernel needs its accumulate form for bit-exactness"
            )
        return True, None

    @staticmethod
    def slab_cols(n_cols: int, itemsize: int) -> int:
        """Columns per slab so the slab's ``X`` rows fit the L2 target."""
        fit = _SLAB_TARGET_BYTES // max(1, n_cols * itemsize)
        return max(_MIN_SLAB_COLS, int(fit))

    def prepare(self, matrix, n_cols):
        n_gather = matrix.shape[1]
        width = self.slab_cols(n_cols, matrix.dtype.itemsize)
        if width >= n_gather:
            return None  # X already fits the target; one unblocked pass
        csc = matrix.tocsc()
        slabs = []
        for c0 in range(0, n_gather, width):
            slab = csc[:, c0 : min(n_gather, c0 + width)].tocsr()
            slabs.append((c0, slab))
        return slabs

    def matmat(self, state, matrix, x, out, accumulate):
        if not accumulate:
            out[...] = 0
        if state is None:
            _spmm_accumulate(matrix, x, out)
            return
        for c0, slab in state:
            _spmm_accumulate(slab, x[c0 : c0 + slab.shape[1]], out)


class NumbaKernel(Kernel):
    """JIT-compiled flat CSR matmat (optional; needs importable numba).

    Runs the same per-nonzero accumulation loop as ``csr_matvecs`` in
    ascending index order, so results stay bit-identical to the other
    kernels (numba does not enable FP contraction by default).
    """

    name = "numba"

    def __init__(self) -> None:
        self._jit = None

    def available(self):
        if not HAS_NUMBA:
            return False, "numba is not importable"
        return True, None

    def _compiled(self):
        if self._jit is None:
            @_numba.njit(cache=False)
            def spmm(indptr, indices, data, x, out):  # pragma: no cover - needs numba
                n_row = indptr.shape[0] - 1
                n_vec = x.shape[1]
                for i in range(n_row):
                    for jj in range(indptr[i], indptr[i + 1]):
                        a = data[jj]
                        j = indices[jj]
                        for v in range(n_vec):
                            out[i, v] += a * x[j, v]

            self._jit = spmm
        return self._jit

    def matmat(self, state, matrix, x, out, accumulate):  # pragma: no cover - needs numba
        if not accumulate:
            out[...] = 0
        self._compiled()(matrix.indptr, matrix.indices, matrix.data, x, out)


class ThreadedKernel(Kernel):
    """Row-parallel CSR matmat: nnz-balanced row ranges run concurrently.

    Rows are independent in CSR matmat — every output row ``out[i]`` is a
    function of row ``i``'s nonzeros and ``x`` alone — so splitting the row
    space into contiguous ranges and computing each range concurrently
    performs exactly the per-row accumulation sequence of the unsplit
    kernel.  Results are therefore **bit-identical** to ``scipy`` for any
    thread count and any partition (the parity suite forces uneven ones).

    Two execution modes, picked at :meth:`prepare` time:

    - numba importable → a ``prange`` over the ranges inside one JIT'd
      function (true no-GIL row loop);
    - otherwise → the shared ``repro-kernel`` thread pool, each task calling
      the GIL-releasing ``csr_matvecs`` on one contiguous row slice (the
      slice's adjusted ``indptr`` is precomputed; ``indices``/``data`` are
      zero-copy views), so the kernel exists and parallelizes on every host
      with a modern scipy.

    Prepared state (the partition + per-range CSR slices) is cached on the
    operator like the blocked kernel's slabs; :meth:`state_token` folds the
    current thread count into the cache key so a ``REPRO_KERNEL_THREADS``
    change invalidates stale partitions.
    """

    name = "threaded"

    def __init__(self) -> None:
        self._jit = None

    def available(self):
        if HAS_NUMBA or HAS_CSR_MATVECS:
            return True, None
        return False, (  # pragma: no cover - scipy internals moved
            "neither numba nor scipy.sparse._sparsetools.csr_matvecs is "
            "available; the threaded kernel has no row-parallel backend"
        )

    def state_token(self):
        return kernel_threads()

    def prepare(self, matrix, n_cols):
        n_threads = kernel_threads()
        ranges = nnz_balanced_ranges(matrix.indptr, n_threads)
        if len(ranges) <= 1:
            return None  # one thread or one range: plain sequential pass
        if HAS_NUMBA:  # pragma: no cover - needs numba
            bounds = np.array(
                [r0 for r0, _ in ranges] + [ranges[-1][1]], dtype=np.int64
            )
            return ("numba", bounds)
        slices = []
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        for r0, r1 in ranges:
            lo, hi = int(indptr[r0]), int(indptr[r1])
            # Rebased indptr is a small copy; indices/data stay views.
            slices.append(
                (r0, r1, indptr[r0 : r1 + 1] - lo, indices[lo:hi], data[lo:hi])
            )
        return ("threads", slices)

    def _compiled(self):  # pragma: no cover - needs numba
        if self._jit is None:

            @_numba.njit(parallel=True, cache=False)
            def spmm(bounds, indptr, indices, data, x, out):
                n_vec = x.shape[1]
                for p in _numba.prange(bounds.shape[0] - 1):
                    for i in range(bounds[p], bounds[p + 1]):
                        for jj in range(indptr[i], indptr[i + 1]):
                            a = data[jj]
                            j = indices[jj]
                            for v in range(n_vec):
                                out[i, v] += a * x[j, v]

            self._jit = spmm
        return self._jit

    def matmat(self, state, matrix, x, out, accumulate):
        if not accumulate:
            out[...] = 0
        if state is None:
            if HAS_CSR_MATVECS:
                _spmm_accumulate(matrix, x, out)
            else:  # pragma: no cover - needs numba without csr_matvecs
                self._compiled()(
                    np.array([0, matrix.shape[0]], dtype=np.int64),
                    matrix.indptr, matrix.indices, matrix.data, x, out,
                )
            return
        mode, payload = state
        if mode == "numba":  # pragma: no cover - needs numba
            self._compiled()(payload, matrix.indptr, matrix.indices, matrix.data, x, out)
            return
        n_col = matrix.shape[1]
        n_vec = x.shape[1]
        xflat = x.ravel()
        outflat = out.ravel()  # view (operator-owned outputs are contiguous)

        def run_range(task):
            r0, r1, indptr_adj, idx, dat = task
            _csr_accumulate(
                r1 - r0, n_col, n_vec, indptr_adj, idx, dat,
                xflat, outflat[r0 * n_vec : r1 * n_vec],
            )

        # Lock-free executor use: futures are created and joined with no
        # lock held (the pool lock only guards creation/growth above).
        pool = _kernel_executor(len(payload))
        futures = [pool.submit(run_range, task) for task in payload]
        for future in futures:
            future.result()


#: Registry in fallback-priority order; ``scipy`` is the universal default.
KERNELS: "dict[str, Kernel]" = {
    kernel.name: kernel
    for kernel in (ScipyKernel(), BlockedKernel(), NumbaKernel(), ThreadedKernel())
}

DEFAULT_KERNEL = "scipy"

#: Environment variable consulted (per call) for the requested kernel.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Programmatic override set via :func:`set_kernel`; wins over the env var.
_kernel_override: "str | None" = None


@dataclass(frozen=True)
class KernelReport:
    """What :func:`active_kernel` resolved and why.

    ``name`` is the kernel actually in use; ``requested`` what the caller /
    env asked for (``None`` when nothing was requested); ``fallback_reason``
    is non-``None`` exactly when the request could not be honored.
    """

    name: str
    requested: "str | None"
    fallback_reason: "str | None"
    capabilities: dict

    @property
    def is_fallback(self) -> bool:
        return self.fallback_reason is not None


def set_kernel(name: "str | None") -> None:
    """Select the matmat kernel programmatically (``None`` clears).

    Takes precedence over ``REPRO_KERNEL``.  The choice is validated lazily
    at the next multiply, exactly like the env var, so selecting a kernel
    that later turns out unavailable degrades to ``scipy`` with the reason
    recorded in :func:`active_kernel`.  Note the override is process-local:
    :mod:`repro.parallel` workers inherit ``REPRO_KERNEL`` from the parent's
    environment but not this override.
    """
    global _kernel_override
    if name is not None and name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; registered kernels: {sorted(KERNELS)}"
        )
    _kernel_override = name


def requested_kernel() -> "str | None":
    """The kernel currently being requested (override, else env, else None)."""
    if _kernel_override is not None:
        return _kernel_override
    env = os.environ.get(KERNEL_ENV_VAR, "").strip()
    return env or None


def resolve(name: "str | None" = None) -> "tuple[Kernel, KernelReport]":
    """Resolve a kernel request to a usable kernel, falling back to scipy.

    ``name=None`` consults :func:`requested_kernel`.  Unknown or unavailable
    requests degrade to the ``scipy`` kernel; the report says why.
    """
    requested = name if name is not None else requested_kernel()
    if requested is None:
        kernel = KERNELS[DEFAULT_KERNEL]
        return kernel, KernelReport(kernel.name, None, None, capabilities())
    candidate = KERNELS.get(requested)
    if candidate is None:
        reason = f"unknown kernel {requested!r} (registered: {sorted(KERNELS)})"
    else:
        usable, reason = candidate.available()
        if usable:
            return candidate, KernelReport(candidate.name, requested, None, capabilities())
    fallback = KERNELS[DEFAULT_KERNEL]
    return fallback, KernelReport(fallback.name, requested, reason, capabilities())


def active_kernel() -> KernelReport:
    """Report of the kernel the next multiply will use (and why).

    The resolution is re-run on every call, so changes to ``REPRO_KERNEL``
    or :func:`set_kernel` are reflected immediately.
    """
    _, report = resolve()
    return report


def available_kernels() -> "dict[str, str | None]":
    """``{name: None if usable else reason}`` for every registered kernel."""
    return {name: kernel.available()[1] for name, kernel in KERNELS.items()}


#: requested-kernel names already warned about in this process; fallback is
#: resolved per multiply, so without this a degraded request would warn once
#: per solver sweep (and pool workers record-capture warnings, making that
#: per-sweep churn as well as noise).
_warned_fallbacks: "set[str]" = set()


def warn_if_fallback(report: KernelReport) -> None:
    """RuntimeWarning the first time a given kernel request degrades."""
    if report.is_fallback and report.requested not in _warned_fallbacks:
        _warned_fallbacks.add(report.requested)
        warnings.warn(
            f"requested kernel {report.requested!r} is unavailable "
            f"({report.fallback_reason}); using {report.name!r}",
            RuntimeWarning,
            stacklevel=3,
        )
