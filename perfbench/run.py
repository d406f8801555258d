"""Serving benchmark of the RoundTripRank library on the 30k-node BibNet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``cold_topk_local`` and ``hot_multiseed`` (``all`` runs both), and
the report-only ``zipf_churn`` (see ``workloads.py`` and ``DESIGN.md``).
Each runs in a fresh child process, one after another, with BLAS/OpenMP
pinned to one thread and ``REPRO_KERNEL`` / ``REPRO_KERNEL_THREADS`` /
``REPRO_OBS`` cleared.  The first run in a
checkout builds the fixtures (graph and oracle, about two minutes).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and traced, prints the per-layer self-time ledger
and reports the per-layer metrics, including ``trace.overhead_pct``.

Every answer is checked against the exact oracle; a failed query, or work
counts that differ from an earlier run of the same seed and code, make the
command exit non-zero.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
#: The workloads ``BENCHMARK.json`` declares, which ``--workload all`` runs.
#: ``zipf_churn`` stays runnable by name but is report-only: on a 2-CPU host
#: whose memory bandwidth is shared, its run-to-run spread came too close to
#: the largest bound a declared metric may have (see DESIGN.md).
WORKLOADS = ("cold_topk_local", "hot_multiseed")
REPORT_ONLY = ("zipf_churn",)
END_TO_END = ("latency_p50_ms", "latency_tail_ms", "throughput_qps", "setup_s", "peak_rss_mb")
#: A workload's children must end within 180 s; fixture building is the exception.
RUN_BUDGET_S = 170.0
FIXTURE_BUDGET_S = 880.0


def child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_KERNEL", "REPRO_KERNEL_THREADS", "REPRO_OBS")
    }
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_key() -> str:
    """Hash of the program and benchmark sources (keys the work fingerprints)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(workload: str, seed: int, seconds: float, timed: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--timed", str(int(timed))]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_fingerprint(report: dict, seconds: float) -> "str | None":
    """Compare the run's exact work counts with an earlier run of the same
    seed, workload, length and source; record them if this is the first."""
    folder = CACHE / "fingerprints" / source_key()
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{report['workload']}-seed{report['seed']}-s{seconds:g}.json"
    current = report["fingerprint"]
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != current:
            diff = sorted(k for k in set(earlier) | set(current) if earlier.get(k) != current.get(k))
            return f"{report['workload']} seed {report['seed']}: work counts changed: {diff}"
        return None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(current, sort_keys=True))
    os.replace(tmp, path)
    return None


def describe(report: dict) -> str:
    lines = [f"{report['workload']} (seed {report['seed']}, {report['queries']} queries, "
             f"{report['samples']} latency samples, tail = p{report['tail_pct']}):"]
    for name, (value, unit) in report["metrics"].items():
        lines.append(f"  {name:<18}{value:>14.4f} {unit}")
    before, after = report["host_probe_ms"]
    lines.append(f"  host probe (report-only): scipy matvec {before:.3f} ms before, "
                 f"{after:.3f} ms after")
    lines.append("  setup runs: " + ", ".join(f"{s:.3f} s" for s in report["setup_runs_s"]))
    for failure in report["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + REPORT_ONLY + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fixture = subprocess.run(
        [sys.executable, str(HERE / "fixtures.py"), "--ensure"],
        cwd=ROOT, env=child_env(), timeout=FIXTURE_BUDGET_S,
    )
    if fixture.returncode != 0:
        print("perfbench: building the fixtures failed", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)

    attempted = failed = 0
    problems: "list[str]" = []
    metrics: dict = {}
    for name in names:
        plain = run_child(name, args.seed, args.seconds, False, deadline)
        runs = [plain]
        if args.trace:
            traced = run_child(name, args.seed, args.seconds, True, deadline)
            runs.append(traced)
            if traced["fingerprint"] != plain["fingerprint"]:
                problems.append(f"{name}: traced and untraced runs did different work")
        for report in runs:
            print(describe(report))
            attempted += report["queries"]
            failed += report["failed"]
            problem = check_fingerprint(report, args.seconds)
            if problem:
                problems.append(problem)
        prefix = f"{name}." if args.workload == "all" else ""
        if args.trace:
            layers = dict(traced["layers"])
            qps_plain = plain["metrics"]["throughput_qps"][0]
            qps_traced = traced["metrics"]["throughput_qps"][0]
            layers["trace.overhead_pct"] = (100.0 * (qps_plain / qps_traced - 1.0), "%")
            print(f"  {name} trace.overhead_pct: {layers['trace.overhead_pct'][0]:.2f} %")
            chosen = layers
        else:
            chosen = {key: plain["metrics"][key] for key in END_TO_END}
        for key, (value, unit) in chosen.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
