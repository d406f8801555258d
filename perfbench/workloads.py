"""One workload in one process: set up, run the timed phase, check, report.

``run.py`` starts this file in a fresh child process per workload, with
BLAS/OpenMP pinned to one thread and the ``REPRO_*`` switches cleared, and
reads the JSON report it prints as its last stdout line.

Every workload drives one client thread through the public
``RankGateway`` API with library defaults (no worker pool, default kernel,
``repro.obs`` off), with k=10 and alpha=0.25, closed loop:

- ``cold_topk_local``: ``RankGateway(local_topk=True)``, one query
  outstanding, each query one catalogue node no earlier query on its
  gateway used.
- ``hot_multiseed``: ``RankGateway(local_topk=False)``, three tenants with
  their own Zipf heads over the 48-node hot set, 1-3 weighted seeds per
  query, the hot set pre-warmed into the default cache, windows of
  ``max_batch`` outstanding queries so every flush is size-triggered.
- ``zipf_churn`` (report-only, not declared in ``BENCHMARK.json``): the
  same batcher path with one Zipf stream over the whole catalogue and a
  cache budget well below its working set; set-up replays an untimed
  prefix of the stream until the cache is full.

The timed phase runs a fixed number of queries, sized from ``--seconds``
at each workload's nominal rate on a 2-CPU host, so that the work counts of
one seed repeat exactly.  ``max_delay`` is far longer than any window
takes to submit and the query count is a whole number of windows, so no
flush is ever deadline-triggered.

Each run serves its query stream in ``PASSES`` passes, each right after a
from-scratch set-up of its own, so every pass starts from the same state.
A query's latency is the fastest of its passes, and a window's time the
fastest of its passes (see ``DESIGN.md``, "Steadiness").
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixtures  # noqa: E402
from fixtures import ALPHA, HOT_SIZE, K  # noqa: E402
from repro.gateway import RankGateway, Shed  # noqa: E402
from repro.graph.io import load_graph  # noqa: E402
from repro.serving import ColumnCache  # noqa: E402
from tracing import Probes, format_ledger, ledger  # noqa: E402

MAX_BATCH = 32  # the library default, named here because windows depend on it
MAX_DELAY = 2.0
TENANTS = ("acme", "globex", "initech")
HOT_ZIPF = 1.1
CHURN_ZIPF = 1.0
#: Cache budget of ``zipf_churn``, in (F, T) column pairs.
CHURN_BUDGET_PAIRS = 56
#: Each run serves its query stream this many times, each pass after a
#: set-up of its own, and keeps each query's and each window's fastest pass
#: (``setup_s`` is the median of the set-ups).
#: Neighbours on the shared host only ever add time, in bursts of 10-30 s,
#: so the fastest of four passes spread over the run moves far less than
#: any one pass.
PASSES = 4
#: Queries per second of ``--seconds``, over all passes (nominal rates on a
#: 2-CPU host).
NOMINAL_QPS = {"cold_topk_local": 12, "hot_multiseed": 400, "zipf_churn": 50}
PROBE_MATVECS = 100


def query_count(workload: str, seconds: float) -> int:
    """Queries in one pass."""
    n = int(round(seconds * NOMINAL_QPS[workload] / PASSES))
    if workload == "cold_topk_local":
        return max(1, min(n, fixtures.CATALOGUE_SIZE))
    return max(MAX_BATCH, n - n % MAX_BATCH)


def tail_percentile(n: int) -> int:
    """The highest of p99/p95/p90 leaving at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return weights / weights.sum()


# ---------------------------------------------------------------------- #
# Inputs (from the seed only)
# ---------------------------------------------------------------------- #


def cold_inputs(seed: int, nodes: np.ndarray, n: int) -> list:
    """The first ``n`` catalogue nodes, one query each, in a seeded order.
    Every seed serves the same nodes: the few that escalate set most of a
    run's time, and drawing 120 of 320 nodes by seed moved throughput by
    about 6% between seeds on its own."""
    rng = np.random.default_rng(seed)
    return [("default", int(v)) for v in rng.permutation(nodes[:n])]


def hot_inputs(seed: int, nodes: np.ndarray, n: int) -> list:
    rng = np.random.default_rng(seed)
    hot = nodes[:HOT_SIZE]
    heads = [rng.permutation(hot) for _ in TENANTS]
    p = zipf_weights(HOT_SIZE, HOT_ZIPF)
    queries = []
    for i in range(n):
        tenant = i % len(TENANTS)
        width = int(rng.integers(1, 4))
        ranks = rng.choice(HOT_SIZE, size=width, replace=False, p=p)
        weights = np.round(rng.uniform(0.5, 2.0, size=width), 3)
        queries.append(
            (TENANTS[tenant], {int(heads[tenant][r]): float(w) for r, w in zip(ranks, weights)})
        )
    return queries


def stratified_zipf(rng, size: int, exponent: float, length: int) -> np.ndarray:
    """``length`` Zipf ranks in which each rank occurs its expected number of
    times (largest remainder), shuffled.  Random draws would let the miss
    count, and with it the run time, vary with the seed by several percent."""
    expected = zipf_weights(size, exponent) * length
    counts = np.floor(expected).astype(np.int64)
    remainder = length - int(counts.sum())
    counts[np.argsort(counts - expected, kind="stable")[:remainder]] += 1
    ranks = np.repeat(np.arange(size), counts)
    rng.shuffle(ranks)
    return ranks


def churn_stream(seed: int, nodes: np.ndarray, n: int) -> list:
    """Two stratified blocks of ``n`` queries over a seed-ranked catalogue:
    set-up replays windows of the first until the cache is full, and the
    timed phase is the second."""
    rng = np.random.default_rng(seed)
    ranked = rng.permutation(nodes)
    ranks = np.concatenate(
        [stratified_zipf(rng, nodes.size, CHURN_ZIPF, n) for _ in range(2)]
    )
    return [("default", int(ranked[r])) for r in ranks]


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #


class Served:
    """A loaded graph plus a started gateway: one set-up's product."""

    def __init__(self, workload: str, graph_file: Path, nodes: np.ndarray, prefix: list) -> None:
        started = time.perf_counter()
        self.graph = load_graph(graph_file)
        self.load_s = time.perf_counter() - started
        if workload == "cold_topk_local":
            self.gateway = RankGateway(self.graph, local_topk=True).start()
            # Lazy preparation: both operators in both precisions (a column
            # solve) and the push state (one local query), on nodes outside
            # the catalogue so no timed query finds them cached.
            taken = set(nodes.tolist())
            venue = self.graph.type_names.index("venue")
            spare = [
                v for v in range(self.graph.n_nodes)
                if v not in taken and self.graph.node_types[v] != venue
            ][:2]
            self.gateway.cache.warm(self.graph, [spare[0]], ALPHA)
            self.gateway.submit(spare[1], k=K, alpha=ALPHA).result()
        elif workload == "hot_multiseed":
            self.gateway = RankGateway(
                self.graph, max_batch=MAX_BATCH, max_delay=MAX_DELAY
            ).start()
            self.gateway.cache.warm(self.graph, [int(v) for v in nodes[:HOT_SIZE]], ALPHA)
        else:
            pair = 2 * self.graph.n_nodes * np.dtype(np.float64).itemsize
            cache = ColumnCache(max_bytes=CHURN_BUDGET_PAIRS * pair, alpha=ALPHA)
            self.gateway = RankGateway(
                self.graph, cache=cache, max_batch=MAX_BATCH, max_delay=MAX_DELAY
            ).start()
            for start in range(0, len(prefix), MAX_BATCH):
                if cache.cache_info().current_bytes + pair > cache.max_bytes:
                    break
                futures = [
                    self.gateway.submit(q, tenant=t, k=K, alpha=ALPHA)
                    for t, q in prefix[start:start + MAX_BATCH]
                ]
                for future in futures:
                    future.result()

    def close(self) -> None:
        self.gateway.close()


def host_probe(graph) -> float:
    """Median ms of one scipy CSR matvec on the graph (report-only)."""
    matrix = graph.weights.tocsr()
    v = np.ones(matrix.shape[1])
    times = []
    for _ in range(PROBE_MATVECS):
        started = time.perf_counter()
        matrix @ v
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------- #
# Timed phase
# ---------------------------------------------------------------------- #


def timed_phase(gateway, queries: list, probes: Probes, window: int) -> dict:
    """Submit ``queries`` in closed-loop windows; return per-query records."""
    n = len(queries)
    sent = np.zeros(n)
    returned = np.zeros(n)
    resolved = np.full(n, np.nan)
    outcomes: list = [None] * n
    clock = time.perf_counter
    timed = probes.timed

    def on_done(i):
        def done(_future):
            resolved[i] = clock()
        return done

    root = probes.open("client") if timed else None
    for start in range(0, n, window):
        pending = []
        for i in range(start, min(start + window, n)):
            tenant, query = queries[i]
            if timed:
                probes.tag = i
            sent[i] = clock()
            try:
                future = gateway.submit(query, tenant=tenant, k=K, alpha=ALPHA)
            except Exception as exc:  # counted as a failed query
                outcomes[i] = exc
                continue
            returned[i] = clock()
            if isinstance(future, Shed):
                outcomes[i] = future
                continue
            future.add_done_callback(on_done(i))
            pending.append((i, future))
        for i, future in pending:
            try:
                outcomes[i] = future.result()
            except Exception as exc:  # counted as a failed query
                outcomes[i] = exc
    if timed:
        probes.close(root)
    return {"sent": sent, "returned": returned, "resolved": resolved,
            "outcomes": outcomes}


def counters(gateway) -> dict:
    info = gateway.cache.cache_info()
    lanes = [gateway._lanes[key].batcher.stats for key in gateway.lanes()]  # noqa: SLF001
    snap = gateway.snapshot()
    return {
        "cache.hits": info.hits,
        "cache.misses": info.misses,
        "cache.evictions": info.evictions,
        "cache.inserts": info.inserts,
        "batcher.flushes": sum(s.n_flushes for s in lanes),
        "batcher.size_flushes": sum(s.n_size_flushes for s in lanes),
        "batcher.deadline_flushes": sum(s.n_deadline_flushes for s in lanes),
        "batcher.widths": [w for s in lanes for w in s.batch_sizes],
        "gateway.local_certified": snap.n_local_certified,
        "gateway.local_escalated": snap.n_local_escalated,
        "gateway.shed": snap.n_shed,
    }


def delta(before: dict, after: dict) -> dict:
    out = {}
    for key, value in after.items():
        out[key] = value[len(before[key]):] if isinstance(value, list) else value - before[key]
    return out


# ---------------------------------------------------------------------- #
# Checking
# ---------------------------------------------------------------------- #


def check_answers(workload: str, queries: list, outcomes: list, oracle) -> "list[str]":
    """One message per failed query: raised, shed, or a wrong top-k."""
    failures = []
    for i, ((_tenant, query), outcome) in enumerate(zip(queries, outcomes)):
        if isinstance(outcome, Shed):
            failures.append(f"query {i}: shed ({outcome.reason})")
            continue
        if isinstance(outcome, BaseException):
            failures.append(f"query {i}: raised {outcome!r}")
            continue
        indices, scores = outcome
        if isinstance(query, dict):
            band_idx, band_val = oracle.mix(query)
        else:
            band_idx, band_val = oracle.single(query)
        # Certified local answers carry unnormalized lower estimates, so
        # only their set and order are compared; every other answer's
        # scores are the normalized exact ones.
        why = fixtures.check(
            indices, scores, band_idx, band_val,
            ranked=True, scored=workload != "cold_topk_local",
        )
        if why is not None:
            failures.append(f"query {i}: {why}")
    return failures


# ---------------------------------------------------------------------- #
# Main
# ---------------------------------------------------------------------- #


def layer_metrics(
    probes: Probes, records: dict, counts: dict, n: int, load_s: float, host_ms: float
) -> dict:
    selfs = probes.self_times()

    def per_query_ms(layer: str) -> float:
        values = selfs.get(layer)
        return 0.0 if values is None else 1e3 * float(values.sum()) / n

    widths = counts["batcher.widths"]
    flushes = counts["batcher.flushes"]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    local_queries = probes.counts["local.queries"]
    solves = probes.counts["engine.solves"]
    wait = np.clip(records["resolved"] - records["returned"], 0.0, None)
    return {
        "gateway.submit.self_ms": (per_query_ms("gateway.submit"), "ms"),
        "gateway.admission.ms": (per_query_ms("gateway.admission"), "ms"),
        "gateway.shed": (counts["gateway.shed"], "count"),
        "batcher.flushes": (flushes, "count"),
        "batcher.flush_width_mean": (float(np.mean(widths)) if widths else 0.0, "queries"),
        "batcher.deadline_flush_share": (
            counts["batcher.deadline_flushes"] / flushes if flushes else 0.0, "share"),
        "batcher.wait_ms": (1e3 * float(np.nanmean(wait)), "ms"),
        "batcher.submit.self_ms": (per_query_ms("batcher.submit"), "ms"),
        "batcher.compose.self_ms": (per_query_ms("batcher.compose"), "ms"),
        "cache.get_many.self_ms": (per_query_ms("cache.get_many"), "ms"),
        "cache.hit_rate": (counts["cache.hits"] / lookups if lookups else 0.0, "share"),
        "cache.misses": (counts["cache.misses"], "count"),
        "cache.evictions": (counts["cache.evictions"], "count"),
        "serving.topk_select.ms": (per_query_ms("serving.topk_select"), "ms"),
        "topk_local.self_ms": (per_query_ms("topk.local"), "ms"),
        "topk_local.work_per_query": (
            probes.counts["local.work"] / local_queries if local_queries else 0.0, "units"),
        "topk_local.escalation_rate": (
            probes.counts["local.escalations"] / local_queries if local_queries else 0.0, "share"),
        "topk_local.rounds_mean": (
            probes.counts["local.rounds"] / local_queries if local_queries else 0.0, "rounds"),
        "engine.solve.self_ms": (per_query_ms("engine.solve"), "ms"),
        "engine.solve.width_mean": (
            float(np.mean(probes.solve_widths)) if probes.solve_widths else 0.0, "columns"),
        "engine.matmat_calls_per_solve": (
            probes.counts["ops.matmat_calls"] / solves if solves else 0.0, "calls"),
        "ops.matmat.ms": (per_query_ms("ops.matmat"), "ms"),
        "ops.matvec_equiv_per_query": (probes.counts["ops.matmat_columns"] / n, "columns"),
        "ops.bytes_computed_per_query": (probes.matmat_bytes / n, "B"),
        "client.self_ms": (per_query_ms("client"), "ms"),
        "graph.load_s": (load_s, "s"),
        "host.matvec_ms": (host_ms, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_QPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--timed", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = args.workload

    graph_file = fixtures.graph_path()
    nodes = fixtures.load_catalogue()
    n = query_count(workload, args.seconds)
    prefix: list = []
    if workload == "cold_topk_local":
        queries = cold_inputs(args.seed, nodes, n)
    elif workload == "hot_multiseed":
        queries = hot_inputs(args.seed, nodes, n)
    else:
        stream = churn_stream(args.seed, nodes, n)
        prefix, queries = stream[:n], stream[n:]

    setup_times, load_times = [], []

    def set_up() -> Served:
        gc.collect()
        started = time.perf_counter()
        served = Served(workload, graph_file, nodes, prefix)
        setup_times.append(time.perf_counter() - started)
        load_times.append(served.load_s)
        return served

    # The probes go in only around the timed part of each pass, so no
    # set-up's work is counted or traced.
    window = 1 if workload == "cold_topk_local" else MAX_BATCH
    starts = np.arange(0, n, window)
    probes = Probes(timed=bool(args.timed))
    merged: "dict[str, list]" = {"sent": [], "returned": [], "resolved": [], "outcomes": []}
    latency = np.empty((PASSES, n))  # seconds; NaN where a query failed
    window_time = np.empty((PASSES, starts.size))  # first submit to last answer
    counts: dict = {}
    probe_before = probe_after = peak_rss_mb = 0.0
    for p in range(PASSES):
        served = set_up()
        if p == 0:
            probe_before = host_probe(served.graph)
        before = counters(served.gateway)
        with probes:
            records = timed_phase(served.gateway, queries, probes, window)
        for key, value in delta(before, counters(served.gateway)).items():
            counts[key] = counts[key] + value if key in counts else value
        latency[p] = records["resolved"] - records["sent"]
        window_time[p] = np.maximum.reduceat(records["resolved"], starts) - records["sent"][starts]
        for key in merged:
            merged[key].extend(records[key])
        if p == 0:
            # One set-up and one pass.  Each later set-up reuses a heap the
            # earlier ones left fragmented and lifted the peak by 0-10% at
            # random, so the peak is read before them.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if p == PASSES - 1:
            probe_after = host_probe(served.graph)
        served.close()
        del served  # so that the next set-up starts with nothing left over
    records = {key: np.asarray(value) for key, value in merged.items() if key != "outcomes"}
    records["outcomes"] = merged["outcomes"]

    oracle = fixtures.Oracle(fixtures.oracle_path())
    attempted = PASSES * n
    failures = check_answers(workload, queries * PASSES, records["outcomes"], oracle)
    best = np.fmin.reduce(latency, axis=0)
    ok = np.isfinite(best)
    pct = tail_percentile(int(ok.sum()))
    answered = 1e3 * best[ok] if ok.any() else np.zeros(1)  # all failed: exits 1 anyway
    # The closed loop's rate with every window at its fastest pass.  A
    # window with a failed query counts no time and no queries; any failure
    # fails the run anyway.
    best_window = np.fmin.reduce(window_time, axis=0)
    served_ok = np.isfinite(best_window)
    sizes = np.diff(np.append(starts, n))
    throughput = (
        float(sizes[served_ok].sum() / best_window[served_ok].sum()) if served_ok.any() else 0.0
    )
    metrics = {
        "latency_p50_ms": (float(np.percentile(answered, 50)), "ms"),
        "latency_tail_ms": (float(np.percentile(answered, pct)), "ms"),
        "throughput_qps": (throughput, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (len(failures) / attempted, "share"),
    }
    fingerprint = dict(counts)
    fingerprint.update(probes.counts)
    fingerprint["engine.widths"] = probes.solve_widths
    report = {
        "workload": workload,
        "seed": args.seed,
        "queries": attempted,
        "tail_pct": pct,
        "samples": int(ok.sum()),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "setup_runs_s": setup_times,
        "host_probe_ms": [probe_before, probe_after],
        "fingerprint": fingerprint,
    }
    if args.timed:
        report["layers"] = layer_metrics(
            probes, records, counts, attempted, statistics.median(load_times),
            (probe_before + probe_after) / 2,
        )
        rows, wall = ledger(probes, "client", attempted)
        report["ledger"] = rows
        print(format_ledger(rows, wall, f"{workload} seed {args.seed}"), file=sys.stderr)
        spans = fixtures.CACHE / "traces" / f"{workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        probes.write(spans)
        print(f"  spans written to {spans.relative_to(fixtures.ROOT)}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
