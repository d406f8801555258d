"""The serving substrate: batched solves and vectorized walk sampling.

Two pillars, both amortizing work across many units at once:

- :mod:`repro.engine.batch` — multi-query F-Rank / T-Rank / RoundTripRank
  via a single multi-column sparse power iteration with per-column early
  exit (``frank_batch`` / ``trank_batch`` / ``roundtriprank_batch`` /
  ``roundtriprank_plus_batch``); the default ``method="auto"`` layers a
  residual-verified mixed-precision Chebyshev acceleration on top, with
  ``method="power"`` as the bit-exact reference; ``compose_scores`` is the
  one routine that turns per-node F/T columns into per-query scores, shared
  by the round-trip batch functions, the serving batcher and escalated
  local top-k;
- :mod:`repro.engine.walks` — :class:`WalkEngine`, which advances all active
  Monte Carlo walkers simultaneously with one ``searchsorted`` per step
  instead of a Python-level ``rng.choice`` per walker.

The single-query functions in :mod:`repro.core` are thin wrappers over (or
reference implementations for) these paths; batch columns match them
exactly.  Online serving stacks on the same two batch entry points:
:class:`repro.serving.ColumnCache` misses and warms solve through
``frank_batch`` / ``trank_batch`` (optionally sharded with ``workers=``),
which is also how the gateway's background
:class:`repro.gateway.Prefetcher` materializes hot columns during idle
capacity.  Every operator product dispatches through
:mod:`repro.ops` (the prepared per-graph :class:`~repro.ops.TransitionOperator`
and the pluggable ``REPRO_KERNEL`` matmat kernels), and ``method="power"``
results are bit-identical under every kernel.
"""

from repro.engine.batch import (
    compose_scores,
    frank_batch,
    power_iteration_batch,
    roundtriprank_batch,
    roundtriprank_plus_batch,
    stack_teleports,
    trank_batch,
)
from repro.engine.walks import WalkEngine, get_walk_engine, sample_geometric_lengths

__all__ = [
    "frank_batch",
    "trank_batch",
    "roundtriprank_batch",
    "roundtriprank_plus_batch",
    "power_iteration_batch",
    "compose_scores",
    "stack_teleports",
    "WalkEngine",
    "get_walk_engine",
    "sample_geometric_lengths",
]
