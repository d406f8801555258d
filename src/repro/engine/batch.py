"""Batched multi-query ranking: one power iteration, many teleport columns.

The single-query functions in :mod:`repro.core` solve one sparse fixed point
per query.  Serving many queries that way wastes the sparse operator: every
query re-streams the whole matrix.  This module stacks the teleport vectors
of ``q`` queries into an ``n x q`` matrix and solves *one* multi-column
fixed point

.. math::

    X = \\alpha S + (1 - \\alpha) \\, O \\, X

(``O = P^T`` for F-Rank, ``O = P`` for T-Rank), so each sweep over the
operator advances every query at once — the sparse-times-dense product
amortizes memory traffic across the batch.

Two solve methods share that multi-column sweep:

- ``method="power"`` — the reference multi-column power iteration with a
  per-column converged mask: finished columns are frozen and drop out of
  subsequent sweeps, so a batch is never slower than its slowest column
  requires.  Column ``j`` performs *exactly* the arithmetic of the
  single-query :func:`repro.core.frank.power_iteration`, so results match
  the single-query functions bit-for-bit.
- ``method="auto"`` (default) — a mixed-precision accelerated path:
  Chebyshev semi-iteration (valid because the damped operator's spectral
  radius is at most ``1 - alpha``) runs the bulk of the sweeps in float32,
  then one or two float64 residual-correction rounds push the error to
  ``tol``.  The final iterate is *verified* against the true float64
  residual; if the spectrum defeats Chebyshev (strongly directed graphs
  have complex eigenvalues) or float32 stalls, the solver falls back to the
  plain masked power iteration, so accuracy never depends on the
  acceleration assumptions.  Roughly 3-7x faster than sequential
  single-query solves on one core.

All operator products dispatch through :class:`repro.ops.TransitionOperator`
— the per-graph prepared CSR (both orientations, per-dtype variants, damped
copies) lives in :mod:`repro.ops`, and the actual CSR matmat kernel is
pluggable (``REPRO_KERNEL``: scipy / blocked / numba).  ``method="power"``
results are bit-identical across kernels, so the kernel choice is purely a
throughput knob.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA, ConvergenceWarning
from repro.core.queries import Query, normalize_query
from repro.graph.digraph import DiGraph
from repro.ops import TransitionOperator, as_operator, get_operator
from repro.utils.validation import check_in_range, check_positive, check_probability

#: L1-delta floor reliably reachable by the float32 Chebyshev phases; below
#: this, progress must come from float64 residual correction.
_F32_FLOOR = 2e-6

#: Sweep budget for one float32 Chebyshev phase (a phase typically needs
#: ~20 sweeps; the budget only matters when float32 stalls).
_PHASE_BUDGET = 120

#: The per-query score measures :func:`compose_scores` builds from F/T columns.
MEASURES = ("roundtriprank", "roundtriprank_plus", "frank", "trank")

_OBS_SOLVES = obs.counter(
    "repro_engine_solves_total", "Batch solves by method.", labels=("method",)
)
_OBS_SWEEPS = obs.counter(
    "repro_engine_sweeps_total", "Total matvec sweeps spent in batch solves."
)


def _record_solve(span_, method: str, x: np.ndarray, norms: np.ndarray, sweeps: int) -> None:
    """Attach solver attributes (sweeps, residual, kernel, dtype) to a span."""
    if not obs.enabled():
        return
    from repro.ops.kernels import active_kernel

    report = active_kernel()
    span_.set_attributes(
        sweeps=int(sweeps),
        residual=float(np.max(norms)) if norms.size else 0.0,
        kernel=report.name,
        dtype=str(x.dtype),
    )
    with obs.span(
        "ops.kernel",
        kernel=report.name,
        requested=report.requested or "",
        fallback=report.fallback_reason or "",
    ):
        pass
    _OBS_SOLVES.inc(method=method)
    _OBS_SWEEPS.inc(int(sweeps))


def stack_teleports(graph: DiGraph, queries: Sequence[Query]) -> np.ndarray:
    """Stack the teleport vectors of ``queries`` into an ``n x q`` matrix.

    Each column is the weight-normalized teleport distribution of one query
    (single node, node sequence, or weighted mapping — see
    :func:`repro.core.queries.normalize_query`).
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    s = np.zeros((graph.n_nodes, len(queries)))
    for j, query in enumerate(queries):
        nodes, weights = normalize_query(graph, query)
        s[nodes, j] = weights
    return s


def _jacobi_masked(top: TransitionOperator, base, damp, x, tol, budget):
    """Masked power iteration ``x <- base + damp * (top @ x)`` from ``x``.

    Columns whose L1 iterate delta falls below ``tol`` are frozen and leave
    the sweep.  Returns ``(x, per_column_delta, sweeps_used)``; with
    ``x = base`` this is exactly the single-query update per column.
    """
    n_cols = base.shape[1]
    active = np.arange(n_cols)
    deltas = np.full(n_cols, np.inf)
    sweeps = 0
    while sweeps < budget and active.size:
        x_active = x[:, active]
        x_next = base[:, active] + damp * top.matmat(x_active)
        sweeps += 1
        step = np.abs(x_next - x_active).sum(axis=0)
        x[:, active] = x_next
        deltas[active] = step
        active = active[step >= tol]
    return x, deltas, sweeps


def _chebyshev_phase(damped_top: TransitionOperator, base, damp, tol, budget):
    """Chebyshev semi-iteration for ``x = base + damped_top @ x``.

    ``damped_top`` must already carry the ``damp`` factor (callers get it
    from :meth:`TransitionOperator.damped`, which caches the scaled float32
    copy per graph, keeping the sweep at four allocation-free dense passes).
    One dtype throughout (callers pass float32 for the bulk phases).  Valid
    when the damped operator's spectrum is (close to) real in
    ``[-damp, damp]`` — true for the mostly-undirected graphs this library
    targets; strongly directed spectra make it diverge, which the caller
    detects and handles.  Runs a fixed sweep schedule sized from the
    Chebyshev rate, then checks the iterate delta every few sweeps; bails
    out early on divergence or stagnation (float32 floor).

    Returns ``(x, sweeps_used, healthy)``; ``healthy=False`` flags
    divergence, *not* mere stagnation.
    """
    x_old = base.copy()
    x = base + damped_top.matmat(x_old)
    sweeps = 1
    omega = 2.0 / (2.0 - damp * damp)
    # Asymptotic Chebyshev rate on [-damp, damp]; predicts when the target
    # delta is plausibly reached so most sweeps skip the delta computation.
    rate = damp / (1.0 + math.sqrt(1.0 - damp * damp))
    predicted = max(2, int(math.ceil(math.log(max(tol, 1e-300)) / math.log(rate))))
    y = np.empty_like(x)
    scratch = np.empty_like(x)
    best = np.inf
    stalls = 0
    col_scale = 1.0
    scale_known = False
    k = 1
    while sweeps < budget:
        np.copyto(y, base)
        damped_top.matmat(x, out=y, accumulate=True)
        sweeps += 1
        y *= x.dtype.type(omega)
        x_old *= x.dtype.type(1.0 - omega)
        x_old += y
        x, x_old = x_old, x
        k += 1
        omega = 1.0 / (1.0 - 0.25 * damp * damp * omega)
        # One early guard check catches divergence; near the predicted sweep
        # count, check every other sweep.
        if k == 8 or (k >= predicted and k % 2 == 1) or sweeps >= budget:
            np.subtract(x, x_old, out=scratch)
            np.abs(scratch, out=scratch)
            delta = float(scratch.sum(axis=0).max())
            if not np.isfinite(delta) or delta > 1e4 * best + 1e4:
                return x, sweeps, False
            if not scale_known:
                # Scale-aware floor: wide solution columns raise the
                # reachable float32 delta proportionally.
                np.abs(x, out=scratch)
                col_scale = max(1.0, float(scratch.sum(axis=0).max()))
                scale_known = True
            if delta < tol * col_scale:
                return x, sweeps, True
            if delta > 0.5 * best:
                stalls += 1
                if stalls >= 3:  # at the precision floor; hand back
                    return x, sweeps, True
            else:
                stalls = 0
            best = min(best, delta)
    return x, sweeps, True


def _residual(top: TransitionOperator, base, damp, x):
    """Float64 residual ``base + damp * (top @ x) - x`` (one sweep)."""
    r = top.matmat(x)
    r *= damp
    r += base
    r -= x
    return r


def _solve_auto(top: TransitionOperator, base, damp, tol, max_iter):
    """Mixed-precision accelerated solve; falls back to masked power iteration.

    Returns ``(x, per_column_residual, sweeps_used)`` where the residual
    column norms are L1 and *verified* in float64 — the accuracy contract
    never rests on the float32/Chebyshev assumptions.  The float32 damped
    operator comes from the operator's own variant cache, so repeated solves
    (and shared-memory workers) never re-derive it.
    """
    damped32 = top.damped(damp, np.float32)
    base32 = base.astype(np.float32)
    phase_tol = max(tol, _F32_FLOOR)
    sweeps_left = max_iter

    x = None
    budget = min(_PHASE_BUDGET, sweeps_left)
    x32, used, healthy = _chebyshev_phase(damped32, base32, damp, phase_tol, budget)
    sweeps_left -= used
    if healthy:
        x = x32.astype(np.float64)
        for _ in range(3):  # residual-correction rounds (typically one)
            if sweeps_left <= 0:
                break
            r = _residual(top, base, damp, x)
            sweeps_left -= 1
            col_res = np.abs(r).sum(axis=0)
            scale = float(col_res.max())
            if scale < tol:
                return x, col_res, max_iter - sweeps_left
            # Solve the correction system delta = r + damp*O@delta in
            # float32 on the normalized right-hand side.
            r32 = (r * (1.0 / scale)).astype(np.float32)
            budget = min(_PHASE_BUDGET, sweeps_left)
            d32, used, healthy = _chebyshev_phase(damped32, r32, damp, phase_tol, budget)
            sweeps_left -= used
            if not healthy:
                break
            x += scale * d32.astype(np.float64)

    # Fallback / polish: the plain masked power iteration converges for any
    # substochastic operator regardless of spectrum.  Start from the best
    # iterate when the accelerated phases were healthy, else from scratch.
    if x is None:
        x = base.copy()
    x, deltas, used = _jacobi_masked(top, base, damp, x, tol, max(0, sweeps_left))
    sweeps_left -= used
    r = _residual(top, base, damp, x)
    sweeps_left -= 1
    col_res = np.abs(r).sum(axis=0)
    return x, col_res, max_iter - sweeps_left


def power_iteration_batch(
    operator,
    teleports: np.ndarray,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    method: str = "auto",
) -> np.ndarray:
    """Solve ``X = alpha * teleports + (1 - alpha) * operator @ X`` column-wise.

    ``operator`` is a :class:`repro.ops.TransitionOperator` or any scipy
    sparse matrix (wrapped on the fly; graph-backed callers should pass the
    cached operator from :func:`repro.ops.get_operator`).  ``teleports`` is
    ``n x q``; the result has the same shape.  With ``method="power"``,
    column ``j`` is exactly what :func:`repro.core.frank.power_iteration`
    returns for teleport column ``j`` (identical update and per-column
    stopping rule, with converged columns masked out of subsequent sweeps)
    — bit-identical under every registered matmat kernel.  With
    ``method="auto"`` (the default) a mixed-precision Chebyshev-accelerated
    path produces columns whose *verified* float64 L1 residual is below
    ``tol`` — within ``tol / alpha`` of the exact fixed point, and within
    the same bound of the ``"power"`` result (far tighter than the 1e-10
    the test-suite parity checks require at the default ``tol``).

    Mirrors the single-query non-convergence contract: columns still above
    ``tol`` when the sweep budget ``max_iter`` is exhausted trigger one
    :class:`repro.core.frank.ConvergenceWarning` (opt out with
    ``warn_on_nonconvergence=False``).
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive(tol, "tol")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be > 0, got {max_iter}")
    if method not in ("auto", "power"):
        raise ValueError(f"method must be 'auto' or 'power', got {method!r}")
    top = as_operator(operator)
    teleports = np.asarray(teleports, dtype=np.float64)
    if teleports.ndim != 2:
        raise ValueError(f"teleports must be 2-D (n x q), got shape {teleports.shape}")
    n_queries = teleports.shape[1]
    base = alpha * teleports
    damp = 1.0 - alpha

    with obs.span("engine.solve", method=method, queries=n_queries) as solve_span:
        if method == "power":
            x, unconverged_norms, sweeps = _jacobi_masked(
                top, base, damp, base.copy(), tol, max_iter
            )
        else:
            x, unconverged_norms, sweeps = _solve_auto(top, base, damp, tol, max_iter)
        _record_solve(solve_span, method, x, unconverged_norms, sweeps)
    bad = unconverged_norms >= tol
    if warn_on_nonconvergence and bad.any():
        warnings.warn(
            f"{int(bad.sum())} of {n_queries} batch columns did not converge within "
            f"max_iter={max_iter} (worst residual {unconverged_norms.max():.3e} "
            f">= tol={tol:g})",
            ConvergenceWarning,
            stacklevel=2,
        )
    return x


def _solve_batch_parallel(
    graph: DiGraph,
    queries: Sequence[Query],
    transpose: bool,
    alpha: float,
    tol: float,
    max_iter: int,
    warn_on_nonconvergence: bool,
    method: str,
    workers: "int | None",
) -> "np.ndarray | None":
    """Parallel dispatch shared by :func:`frank_batch` / :func:`trank_batch`.

    Tries the column-sharded pool first (big batches), then row-sharded
    per-column sweeps (small ``method="power"`` batches on big graphs —
    both bit-exact for any worker count).  Returns ``None`` when neither
    pays; ``method="auto"`` small batches record why they stay sequential:
    the Chebyshev stopping heuristics are batch-shape-dependent, so row
    sharding them could change what a cached column converges to.
    """
    from repro.parallel import rows as _rows
    from repro.parallel.pool import maybe_solve_batch_parallel

    result = maybe_solve_batch_parallel(
        graph, queries, transpose, alpha, tol, max_iter,
        warn_on_nonconvergence, method, workers,
    )
    if result is not None:
        return result
    if method != "power":
        _rows.record_route(
            _rows.RouteReport(
                False,
                0,
                f"batch of {len(queries)} is below the column-shard crossover "
                "and method='auto' stays sequential (row-sharding the "
                "accelerated path is not bit-stable; use method='power')",
            )
        )
        return None
    return _rows.maybe_solve_small_batch_rowsharded(
        graph, queries, transpose, alpha, tol, max_iter,
        warn_on_nonconvergence, workers,
    )


def frank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """F-Rank of every node for every query, as an ``n x q`` column stack.

    Column ``j`` equals ``frank_vector(graph, queries[j], alpha)`` (to the
    verified ``tol``; bit-exact with ``method="power"``).

    ``workers`` shards the columns across the :mod:`repro.parallel` process
    pool (the operator is shared zero-copy).  Batches too small to
    column-shard (see :func:`repro.parallel.effective_workers`) row-shard
    each column's sweeps instead when ``method="power"`` and the graph is
    big enough (:func:`repro.parallel.rows.plan_row_shards`), so a lone
    query with ``workers=4`` still saturates the host; otherwise the
    sequential path runs and the reason is recorded in
    :func:`repro.parallel.rows.active_route`.  Results are independent of
    the worker count (bit-exact for ``method="power"``, within the verified
    residual ``tol`` for ``method="auto"``).
    """
    if workers is not None:
        result = _solve_batch_parallel(
            graph, queries, True, alpha, tol, max_iter,
            warn_on_nonconvergence, method, workers,
        )
        if result is not None:
            return result
    s = stack_teleports(graph, queries)
    return power_iteration_batch(
        get_operator(graph, transpose=True),
        s,
        alpha,
        tol=tol,
        max_iter=max_iter,
        warn_on_nonconvergence=warn_on_nonconvergence,
        method=method,
    )


def trank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """T-Rank of every node for every query, as an ``n x q`` column stack.

    Column ``j`` equals ``trank_vector(graph, queries[j], alpha)`` (to the
    verified ``tol``; bit-exact with ``method="power"``).  ``workers``
    behaves exactly as in :func:`frank_batch` (column shards for big
    batches, row-sharded sweeps for small ``method="power"`` ones).
    """
    if workers is not None:
        result = _solve_batch_parallel(
            graph, queries, False, alpha, tol, max_iter,
            warn_on_nonconvergence, method, workers,
        )
        if result is not None:
            return result
    s = stack_teleports(graph, queries)
    return power_iteration_batch(
        get_operator(graph, transpose=False),
        s,
        alpha,
        tol=tol,
        max_iter=max_iter,
        warn_on_nonconvergence=warn_on_nonconvergence,
        method=method,
    )


def _per_node_columns(
    graph: DiGraph,
    parsed: "list[tuple[np.ndarray, np.ndarray]]",
    alpha: float,
    tol: float,
    max_iter: int,
    warn_on_nonconvergence: bool,
    method: str,
    workers: "int | None" = None,
) -> "tuple[dict[int, np.ndarray], dict[int, np.ndarray]]":
    """Per-node F and T columns for the union of the batch's query nodes.

    RoundTripRank is *not* linear in the teleport vector — a multi-node query
    needs the per-node product ``f_i * t_i`` before the weighted sum — so the
    batch expands every distinct query node into its own column and solves
    all of them in two multi-column sweeps (one for F, one for T).  Each
    solve is transposed once, so every node's column is contiguous for
    :func:`compose_scores`.
    """
    union = np.unique(np.concatenate([nodes for nodes, _ in parsed])).tolist()
    f = frank_batch(graph, union, alpha, tol, max_iter, warn_on_nonconvergence, method, workers)
    t = trank_batch(graph, union, alpha, tol, max_iter, warn_on_nonconvergence, method, workers)
    return (
        dict(zip(union, np.ascontiguousarray(f.T))),
        dict(zip(union, np.ascontiguousarray(t.T))),
    )


def compose_scores(
    parsed: "Sequence[tuple[np.ndarray, np.ndarray]]",
    measure: str,
    f_columns: "Mapping[int, np.ndarray] | None",
    t_columns: "Mapping[int, np.ndarray] | None",
    *,
    beta: float = 0.5,  # mirrors repro.core.roundtrip_plus.DEFAULT_BETA
    normalize: bool = False,
    what: str = "compose_scores",
) -> np.ndarray:
    """Compose per-node columns into a query-major ``q x n`` score block.

    ``parsed`` holds one ``(nodes, weights)`` pair per query (as returned by
    :func:`repro.core.queries.normalize_query`); ``f_columns`` /
    ``t_columns`` map every query node to its length-``n`` F / T column
    (``None`` when ``measure`` does not read that side).  Row ``j`` is
    ``sum_i w_i * term_i`` over query ``j``'s nodes in order, with
    ``term_i`` the node's per-measure score: ``f_i`` (``"frank"``), ``t_i``
    (``"trank"``), ``f_i * t_i`` (``"roundtriprank"``, Proposition 2) or
    ``f_i^(1-beta) * t_i^beta`` (``"roundtriprank_plus"``, Eq. 12, with the
    same operations as :func:`repro.core.roundtrip_plus.combine_beta`).
    Each row is accumulated in place into one C-contiguous block, so its
    scores are contiguous for top-k selection.

    This is the one composition routine of the library: the batch engine,
    :class:`repro.serving.MicroBatcher` and the escalated
    :func:`repro.topk.local_topk` all call it, which is what makes their
    scores bit-identical for identical columns.

    With ``normalize=True`` each row is divided by its sum; a zero-mass row
    cannot be a distribution, so it stays all zeros and a ``RuntimeWarning``
    naming ``what`` is emitted.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if measure == "roundtriprank_plus":
        beta = check_probability(beta, "beta")
        # combine_beta returns the untouched F / T column at the extremes.
        if beta == 0.0:
            measure = "frank"
        elif beta == 1.0:
            measure = "trank"
    if len(parsed) == 0:
        raise ValueError("queries must not be empty")
    some = f_columns if f_columns is not None else t_columns
    n = next(iter(some.values())).shape[0]
    out = np.empty((len(parsed), n))
    term = np.empty(n)
    power = np.empty(n) if measure == "roundtriprank_plus" else None
    for row, (nodes, weights) in zip(out, parsed):
        for i, (node, weight) in enumerate(zip(nodes.tolist(), weights.tolist())):
            if measure == "frank":
                source = f_columns[node]
            elif measure == "trank":
                source = t_columns[node]
            elif measure == "roundtriprank":
                source = np.multiply(f_columns[node], t_columns[node], out=term)
            else:
                np.power(f_columns[node], 1.0 - beta, out=term)
                np.power(t_columns[node], beta, out=power)
                source = np.multiply(term, power, out=term)
            if i == 0:
                np.multiply(source, weight, out=row)
            else:
                row += np.multiply(source, weight, out=term)
    if normalize:
        totals = out.sum(axis=1)
        zero = totals <= 0.0
        if zero.any():
            warnings.warn(
                f"{what}: {int(zero.sum())} of {out.shape[0]} queries have zero "
                "total mass; their score vectors are all-zeros, not distributions",
                RuntimeWarning,
                stacklevel=3,
            )
            totals[zero] = 1.0
        out /= totals[:, None]
    return out


def roundtriprank_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    alpha: float = DEFAULT_ALPHA,
    normalize: bool = True,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """RoundTripRank of every node for every query, as an ``n x q`` stack.

    Column ``j`` equals ``roundtriprank(graph, queries[j], alpha)``.  All
    distinct query nodes across the batch share two multi-column solves (F
    and T); per-query scores are the weighted per-node ``f * t`` products of
    Proposition 2, composed by :func:`compose_scores` (the result is the
    transposed view of its query-major block).  ``workers`` shards both
    solves across the :mod:`repro.parallel` pool as in :func:`frank_batch`.

    With ``normalize=True`` each column sums to one *when it has positive
    mass*; a zero-mass column stays all-zeros and triggers a
    ``RuntimeWarning`` (see :func:`repro.core.roundtrip.roundtriprank`).
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    parsed = [normalize_query(graph, q) for q in queries]
    f, t = _per_node_columns(
        graph, parsed, alpha, tol, max_iter, warn_on_nonconvergence, method, workers
    )
    return compose_scores(
        parsed, "roundtriprank", f, t, normalize=normalize, what="roundtriprank_batch"
    ).T


def roundtriprank_plus_batch(
    graph: DiGraph,
    queries: Sequence[Query],
    beta: float = 0.5,  # mirrors repro.core.roundtrip_plus.DEFAULT_BETA
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    method: str = "auto",
    workers: "int | None" = None,
) -> np.ndarray:
    """RoundTripRank+ (Eq. 12) of every node for every query, ``n x q``.

    Column ``j`` equals ``roundtriprank_plus(graph, queries[j], beta, alpha)``
    — the ``f^(1-beta) * t^beta`` combination, unnormalized as in the
    single-query function.  ``workers`` behaves as in :func:`frank_batch`.
    """
    if len(queries) == 0:
        raise ValueError("queries must not be empty")
    parsed = [normalize_query(graph, q) for q in queries]
    f, t = _per_node_columns(
        graph, parsed, alpha, tol, max_iter, warn_on_nonconvergence, method, workers
    )
    return compose_scores(parsed, "roundtriprank_plus", f, t, beta=beta).T
