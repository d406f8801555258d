"""The benchmark's own probes around the program's public layer entry points.

Nothing here edits the program: :class:`Probes` swaps each probed name
where its caller looks it up (a class attribute, or a module global the
caller reads at call time) and restores it on exit.

Two modes:

- counting (``timed=False``, every run): only the deterministic work
  counters the determinism guard needs — local top-k escalations, rounds and
  push work, engine solves and widths, matmat calls and columns.  No clock
  reads, no span objects.
- tracing (``timed=True``, the ``--trace 1`` run): additionally one span per
  probed call.  A span records name, start, end, parent and query id;
  spans stay in memory, the ledger is computed from them at the end and
  they are written out then.
  Self time is a span's duration minus what its children cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: (ledger layer name, where the probed name is looked up, attribute).
PROBES = (
    ("gateway.submit", "repro.gateway.core:RankGateway", "submit"),
    ("gateway.admission", "repro.gateway.admission:AdmissionController", "admit"),
    ("batcher.submit", "repro.serving.batcher:MicroBatcher", "submit"),
    ("cache.get_many", "repro.serving.cache:ColumnCache", "get_many"),
    ("serving.topk_select", "repro.serving.batcher", "topk_select"),
    ("topk.local", "repro.topk.local", "local_topk"),
    ("engine.solve", "repro.serving.cache", "frank_batch"),
    ("engine.solve", "repro.serving.cache", "trank_batch"),
    ("ops.matmat", "repro.ops.operator:TransitionOperator", "matmat"),
)
#: Probes kept in counting mode.
COUNTED = ("topk.local", "engine.solve", "ops.matmat")


def _resolve(spec: str):
    module_name, _, attr = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Probes:
    """Install probes for the duration of a ``with`` block."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.counts: "dict[str, int]" = defaultdict(int)
        self.solve_widths: "list[int]" = []
        self.matmat_bytes = 0
        # Span columns: name, start, end, parent index, tag.
        self.names: "list[str]" = []
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self.parents: "list[int]" = []
        self.tags: "list[int]" = []
        self._local = threading.local()
        self._saved: "list[tuple[object, str, object]]" = []
        # Current query id, set by the client loop; a flush's spans carry the
        # id of the query whose submit triggered it.
        self.tag = -1

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(stack[-1] if stack else -1)
        self.tags.append(self.tag)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def rename(self, index: int, name: str) -> None:
        self.names[index] = name

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _count_local(self, result) -> None:
        self.counts["local.queries"] += 1
        self.counts["local.escalations"] += int(result.escalated)
        self.counts["local.rounds"] += int(result.rounds)
        self.counts["local.work"] += int(result.work)

    def _count_solve(self, args, kwargs) -> None:
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        self.counts["engine.solves"] += 1
        self.solve_widths.append(len(queries))

    def _count_matmat(self, args, kwargs) -> None:
        operator, x = args[0], np.asarray(args[1])
        width, item = x.shape[1], x.dtype.itemsize
        self.counts["ops.matmat_calls"] += 1
        self.counts["ops.matmat_columns"] += width
        # Computed, not measured: CSR values at the operand's precision plus
        # int32 column indices and row pointers, one read of the operand
        # block and one write of the result (read too when accumulating).
        n = operator.n_nodes
        accumulate = kwargs.get("accumulate", False) or (len(args) > 3 and args[3])
        self.matmat_bytes += (
            operator.nnz * (item + 4) + (n + 1) * 4 + n * width * item * (3 if accumulate else 2)
        )

    def _wrapper(self, layer: str, fn):
        probes = self
        before = {"engine.solve": self._count_solve, "ops.matmat": self._count_matmat}.get(layer)
        after = self._count_local if layer == "topk.local" else None

        if not self.timed:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
        elif layer == "batcher.submit":
            # A submit that fills the window flushes inline: its self time
            # (minus cache and top-k children) is the batcher's composition.
            def wrapper(batcher, *args, **kwargs):
                flushes = batcher.stats.n_flushes
                span = probes.open(layer)
                try:
                    return fn(batcher, *args, **kwargs)
                finally:
                    probes.close(span)
                    if batcher.stats.n_flushes != flushes:
                        probes.rename(span, "batcher.compose")
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                span = probes.open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probes.close(span)
                if after is not None:
                    after(result)
                return result
        return wrapper

    def __enter__(self) -> "Probes":
        for layer, spec, attr in PROBES:
            if not self.timed and layer not in COUNTED:
                continue
            owner = _resolve(spec)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Ledger
    # ------------------------------------------------------------------ #

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start and end (seconds,
        ``perf_counter``), parent (line index, -1 for none) and the query id."""
        with open(path, "w") as out:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.tags):
                out.write(json.dumps(dict(zip(("name", "start", "end", "parent", "query"), span))))
                out.write("\n")

    def self_times(self) -> "dict[str, np.ndarray]":
        """Per-layer arrays of span self times (seconds), one per call."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        covered = np.zeros_like(duration)
        parents = np.asarray(self.parents)
        child = parents >= 0
        np.add.at(covered, parents[child], duration[child])
        own = duration - covered
        by_layer: "dict[str, list[float]]" = defaultdict(list)
        for name, value in zip(self.names, own.tolist()):
            by_layer[name].append(value)
        return {name: np.asarray(values) for name, values in by_layer.items()}


def ledger(probes: Probes, root: str, queries: int) -> "tuple[list[dict], float]":
    """Per-layer self-time rows under ``root`` plus the wall time it covers.

    Each root span covers one pass of the timed phase on the client thread,
    so the self times of every span nested under the roots partition their
    wall time: the shares add up to 100%.  Spans opened on another thread (a deadline
    flush) have no parent and are listed with their own share of the wall.
    """
    selfs = probes.self_times()
    roots = [i for i, name in enumerate(probes.names) if name == root]
    wall = sum(probes.ends[i] - probes.starts[i] for i in roots)
    rows = []
    for name, values in sorted(selfs.items(), key=lambda item: -item[1].sum()):
        total = float(values.sum())
        rows.append(
            {
                "layer": name,
                "calls": int(values.size),
                "self_ms_per_query": 1e3 * total / queries,
                "self_p50_ms": 1e3 * float(np.percentile(values, 50)),
                "self_p90_ms": 1e3 * float(np.percentile(values, 90)),
                "share_pct": 100.0 * total / wall if wall else 0.0,
            }
        )
    return rows, wall


def format_ledger(rows: "list[dict]", wall: float, title: str) -> str:
    lines = [
        f"{title}: per-layer self time over {wall:.3f} s of timed wall time",
        f"  {'layer':<22}{'calls':>8}{'ms/query':>11}{'p50 ms':>10}{'p90 ms':>10}{'share':>9}",
    ]
    for row in rows:
        lines.append(
            f"  {row['layer']:<22}{row['calls']:>8}{row['self_ms_per_query']:>11.4f}"
            f"{row['self_p50_ms']:>10.4f}{row['self_p90_ms']:>10.4f}{row['share_pct']:>8.2f}%"
        )
    lines.append(f"  {'total':<22}{'':>8}{'':>11}{'':>10}{'':>10}"
                 f"{sum(r['share_pct'] for r in rows):>8.2f}%")
    return "\n".join(lines)
