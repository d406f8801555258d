"""Benchmark fixtures: the 30k-node BibNet and the exact top-k oracle.

Both are built once per checkout and cached under ``perfbench/.cache``;
neither counts toward any timed figure.

- The graph is ``generate_bibnet(BibNetConfig(n_papers=14000,
  n_authors=4500, seed=13))`` (29,845 nodes, 388k arcs), saved with
  ``repro.graph.io.save_graph``.  It is keyed by a hash of the config and
  of the generator's source files, so a change to the generator rebuilds it.
- The *catalogue* is a fixed random sample of non-venue nodes with arcs.  Every query
  the workloads time is drawn from it, because the oracle below costs about
  0.3 s per node and cannot be recomputed for fresh nodes on every run.
- The oracle solves the F-Rank and T-Rank column of every catalogue node
  with the engine's reference ``method="power"`` solve and keeps, per node,
  the best RoundTripRank entries (the whole tie band at rank ``K``).  For the
  first ``HOT_SIZE`` catalogue nodes (the hot set of ``hot_multiseed``) it
  also keeps the full unnormalized ``f * t`` vector, from which any
  weighted multi-seed query's exact scores follow (Proposition 2).

Run as a script with ``--ensure``, this module builds whatever is missing;
the oracle is solved in two shards, each in its own child process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"

GRAPH_CONFIG = {"n_papers": 14000, "n_authors": 4500, "seed": 13}
#: Source files whose content defines the generated graph.
GENERATOR_SOURCES = (
    "src/repro/datasets/bibnet.py",
    "src/repro/graph/builder.py",
    "src/repro/graph/digraph.py",
    "src/repro/graph/io.py",
    "src/repro/utils/rng.py",
)
#: Source files whose content defines the oracle's arithmetic.
ORACLE_SOURCES = (
    "src/repro/engine/batch.py",
    "src/repro/ops/operator.py",
    "src/repro/ops/kernels.py",
    "src/repro/graph/transition.py",
    "src/repro/core/queries.py",
)

ALPHA = 0.25
K = 10
CATALOGUE_SIZE = 512
HOT_SIZE = 48
CATALOGUE_SEED = 20130408
#: Entries kept per catalogue node; widened when the tie band at rank K is wider.
KEEP = 32
#: Scores within this share of a query's top score count as tied.  The
#: served columns carry a verified L1 residual below 1e-12, which bounds
#: their deviation from the power-method oracle far below this.
TIE_RTOL = 1e-9
SHARDS = 2
SOLVE_WIDTH = 32


def _hash_files(paths, extra: str = "") -> str:
    digest = hashlib.sha256(extra.encode())
    for rel in paths:
        digest.update(rel.encode())
        digest.update((ROOT / rel).read_bytes())
    return digest.hexdigest()[:16]


def graph_key() -> str:
    return _hash_files(GENERATOR_SOURCES, json.dumps(GRAPH_CONFIG, sort_keys=True))


def oracle_key() -> str:
    params = json.dumps(
        [graph_key(), ALPHA, K, CATALOGUE_SIZE, HOT_SIZE, CATALOGUE_SEED, KEEP, TIE_RTOL]
    )
    return _hash_files(ORACLE_SOURCES + ("perfbench/fixtures.py",), params)


def graph_path() -> Path:
    return CACHE / f"bibnet-{graph_key()}.json"


def oracle_path() -> Path:
    return CACHE / f"oracle-{oracle_key()}.npz"


def catalogue(graph) -> np.ndarray:
    """The fixed catalogue: a seeded sample of non-venue nodes with arcs.

    The generator leaves about 970 authors without a paper; their top-k is
    themselves plus nine zero-score ties, so they are not drawn.
    """
    venue = graph.type_names.index("venue")
    linked = np.diff(graph.weights.tocsr().indptr) > 0
    candidates = np.flatnonzero((np.asarray(graph.node_types) != venue) & linked)
    rng = np.random.default_rng(CATALOGUE_SEED)
    return rng.choice(candidates, CATALOGUE_SIZE, replace=False).astype(np.int64)


def tie_band(scores: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The ``KEEP`` best entries by (score desc, node asc), widened to cover
    every node tied with rank ``K`` within ``TIE_RTOL``; the last kept entry
    is always strictly below the tie band."""
    order = np.argsort(-scores, kind="stable")
    tol = TIE_RTOL * scores[order[0]]
    floor = scores[order[K - 1]] - tol
    width = max(KEEP, int(np.count_nonzero(scores >= floor)) + 1)
    top = order[:width]
    return top, scores[top]


def _read_npz(path: Path) -> "dict[str, np.ndarray]":
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _atomic_write(path: Path, write) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def ensure_graph() -> Path:
    path = graph_path()
    if path.exists():
        return path
    from repro.datasets.bibnet import BibNetConfig, generate_bibnet
    from repro.graph.io import save_graph

    CACHE.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    bibnet = generate_bibnet(BibNetConfig(**GRAPH_CONFIG))
    _atomic_write(path, lambda tmp: save_graph(bibnet.graph, tmp))
    print(
        f"fixture: generated BibNet {bibnet.graph.n_nodes} nodes / "
        f"{bibnet.graph.n_edges} arcs in {time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    return path


def build(shard: int, shards: int, out: Path) -> None:
    """Oracle entries for every ``shards``-th catalogue node from ``shard``."""
    from repro.engine.batch import frank_batch, trank_batch
    from repro.graph.io import load_graph

    graph = load_graph(graph_path())
    nodes = catalogue(graph)
    mine = np.arange(shard, nodes.size, shards)
    positions, bands, hot_rows, hot_products = [], [], [], []
    for start in range(0, mine.size, SOLVE_WIDTH):
        chunk = mine[start:start + SOLVE_WIDTH]
        seeds = [int(v) for v in nodes[chunk]]
        f = frank_batch(graph, seeds, ALPHA, method="power")
        t = trank_batch(graph, seeds, ALPHA, method="power")
        products = f * t
        for j, pos in enumerate(chunk.tolist()):
            product = products[:, j]
            positions.append(pos)
            bands.append(tie_band(product / product.sum()))
            if pos < HOT_SIZE:
                hot_rows.append(pos)
                hot_products.append(product.copy())
    width = max(idx.size for idx, _ in bands)
    band_idx = np.full((len(bands), width), -1, dtype=np.int64)
    band_val = np.full((len(bands), width), -np.inf)
    for row, (idx, val) in enumerate(bands):
        band_idx[row, : idx.size] = idx
        band_val[row, : val.size] = val
    np.savez(
        out,
        positions=np.asarray(positions, dtype=np.int64),
        band_idx=band_idx,
        band_val=band_val,
        hot_rows=np.asarray(hot_rows, dtype=np.int64),
        hot_products=np.asarray(hot_products).reshape(len(hot_rows), graph.n_nodes),
    )


def ensure_oracle(env: dict) -> Path:
    """Build the oracle in ``SHARDS`` parallel child processes, then merge."""
    path = oracle_path()
    if path.exists():
        return path
    started = time.perf_counter()
    parts = [CACHE / f".oracle-part{s}-{os.getpid()}.npz" for s in range(SHARDS)]
    children = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--shard", str(s), str(SHARDS), str(part)],
            cwd=ROOT,
            env=env,
        )
        for s, part in enumerate(parts)
    ]
    try:
        codes = [child.wait(timeout=800) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"oracle shards exited with {codes}")
    from repro.graph.io import load_graph

    graph = load_graph(graph_path())
    nodes = catalogue(graph)
    loaded = [_read_npz(part) for part in parts]
    width = max(part["band_idx"].shape[1] for part in loaded)
    band_idx = np.full((nodes.size, width), -1, dtype=np.int64)
    band_val = np.full((nodes.size, width), -np.inf)
    hot_products = np.zeros((HOT_SIZE, graph.n_nodes))
    for part in loaded:
        pos = part["positions"]
        w = part["band_idx"].shape[1]
        band_idx[pos, :w] = part["band_idx"]
        band_val[pos, :w] = part["band_val"]
        hot_products[part["hot_rows"]] = part["hot_products"]

    def write(tmp: Path) -> None:
        with tmp.open("wb") as handle:
            np.savez(
                handle, catalogue=nodes, band_idx=band_idx, band_val=band_val,
                hot_products=hot_products,
            )

    _atomic_write(path, write)
    for part in parts:
        part.unlink()
    print(
        f"fixture: oracle for {nodes.size} catalogue nodes (method='power') in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    return path


def load_catalogue() -> np.ndarray:
    with np.load(oracle_path()) as data:
        return data["catalogue"]


class Oracle:
    """Exact top-``K`` answers for single catalogue nodes and hot-set mixes."""

    def __init__(self, path: Path) -> None:
        data = _read_npz(path)
        catalogue_nodes = data["catalogue"]
        self.band_idx = data["band_idx"]
        self.band_val = data["band_val"]
        self.hot_products = data["hot_products"]
        self.position = {int(v): i for i, v in enumerate(catalogue_nodes.tolist())}
        self.hot_position = {int(v): i for i, v in enumerate(catalogue_nodes[:HOT_SIZE].tolist())}

    def single(self, node: int) -> "tuple[np.ndarray, np.ndarray]":
        row = self.position[node]
        keep = self.band_idx[row] >= 0
        return self.band_idx[row][keep], self.band_val[row][keep]

    def mix(self, query: "dict[int, float]") -> "tuple[np.ndarray, np.ndarray]":
        rows = [self.hot_position[v] for v in query]
        weights = np.array(list(query.values()), dtype=np.float64)
        scores = weights @ self.hot_products[rows]
        scores /= scores.sum()
        # Candidates by partial selection, then the exact band among them.
        cut = np.argpartition(-scores, 4 * KEEP)[: 4 * KEEP]
        full = np.full_like(scores, -np.inf)
        full[cut] = scores[cut]
        idx, val = tie_band(full)
        if not np.isfinite(val[-1]):
            raise RuntimeError("tie band wider than the candidate cut")
        return idx, val


def check(answer_idx, answer_val, band_idx, band_val, *, ranked: bool, scored: bool) -> "str | None":
    """``None`` if a top-``K`` answer matches the oracle band, else why not.

    The set must equal the oracle's, except that nodes tied with rank ``K``
    (within ``TIE_RTOL`` of the top score) are interchangeable.  ``ranked``
    also requires the answer order to follow the oracle's scores;
    ``scored`` requires each returned score to match the oracle's.
    """
    answer_idx = np.asarray(answer_idx)
    if answer_idx.size != K or np.unique(answer_idx).size != K:
        return f"expected {K} distinct nodes, got {answer_idx.tolist()}"
    tol = TIE_RTOL * band_val[0]
    kth = band_val[K - 1]
    lookup = dict(zip(band_idx.tolist(), band_val.tolist()))
    if any(int(v) not in lookup for v in answer_idx):
        return "answer holds a node outside the oracle's top band"
    got = np.array([lookup[int(v)] for v in answer_idx])
    if np.any(got < kth - tol):
        return "answer holds a node scored below the oracle's k-th"
    required = band_idx[band_val > kth + tol]
    if not set(required.tolist()) <= set(answer_idx.tolist()):
        return "answer misses a node scored above the oracle's k-th"
    if ranked and np.any(got[1:] > got[:-1] + tol):
        return "answer order disagrees with the oracle's scores"
    if scored and np.any(np.abs(np.asarray(answer_val) - got) > tol):
        return "answer scores differ from the oracle's"
    return None


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--shard":
        build(int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))
    elif sys.argv[1:] == ["--ensure"]:
        ensure_graph()
        ensure_oracle(dict(os.environ))
    else:
        sys.exit("usage: fixtures.py --ensure | --shard <i> <n> <out.npz>")
