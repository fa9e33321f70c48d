"""Benchmark launcher: every run in a fresh, pinned process.

    python3 perfbench/run.py                      # every workload, end-to-end table
    python3 perfbench/run.py --trace 1            # every workload, per-layer table
    python3 perfbench/run.py --workload ring_queries --seed 3 --seconds 30 --trace 0

Each run starts ``harness.py`` in a new interpreter with
``EQUIGRAPH_JOBS`` unset and ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``,
so numpy stays single-threaded and the run is one process on one core.
No machine setting is changed.  The launcher records the CPU count, the
load average before and after, the Python, numpy and click versions and
the git commit, and writes them with the run's result under
``.bench_out/runs/``.  For a single workload the last stdout line is the
run's result object (``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = Path(__file__).resolve().parent / "harness.py"
RUNS_DIR = ROOT / ".bench_out" / "runs"
RUN_TIMEOUT_S = 175


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout; never look for a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("EQUIGRAPH_JOBS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str], dict]:
    """Returns (exit code, harness stdout lines, record)."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "loadavg_before": os.getloadavg()}
    cmd = [sys.executable, str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        code, lines = done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code, lines = 1, []
    record["loadavg_after"] = os.getloadavg()
    record["exit_code"] = code
    for line in lines:
        if line.startswith('{"details"'):
            record["details"] = json.loads(line)["details"]
    if lines and lines[-1].startswith('{"correct"'):
        record["result"] = json.loads(lines[-1])
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    (RUNS_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), "utf-8")
    return code, lines, record


def table(records: list[dict], spec: list[dict]) -> None:
    names = [m["name"] for m in spec]
    print(f"{'workload':<16}{'metric':<36}{'value':>16}  unit")
    for rec in records:
        metrics = rec.get("result", {}).get("metrics", {})
        for name in names:
            m = metrics.get(name)
            value = f"{m['value']:.6g}" if m else "missing"
            print(f"{rec['workload']:<16}{name:<36}{value:>16}  {m['unit'] if m else ''}")
        extra = rec.get("details", {})
        if "item_tail_percentile" in extra:
            print(f"{rec['workload']:<16}{'(item_tail_ms percentile, beyond)':<36}"
                  f"{extra['item_tail_percentile']:>16.6g}  {extra['item_tail_samples_beyond']} samples")
        for name, value in extra.get("wall_clock", {}).items():
            print(f"{rec['workload']:<16}{'(wall clock) ' + name:<36}{value:>16.6g}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equigraph" / "cli.py").is_file():
        print(f"run.py: no equigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, lines, record = run_one(args.workload, args.seed, args.seconds, args.trace)
        if code == 0 and "result" not in record:
            code = 1
        print(json.dumps({"env": record["env"], "loadavg_before": record["loadavg_before"],
                          "loadavg_after": record["loadavg_after"]}))
        for line in lines:
            print(line)
        return code

    records = []
    worst = 0
    for w in bench["workloads"]:
        code, _, record = run_one(w["name"], args.seed, args.seconds, args.trace)
        worst = max(worst, code)
        records.append(record)
        verdict = record.get("result", {}).get("correct")
        print(f"{w['name']}: exit {code}, correct {verdict}", file=sys.stderr)
    print(json.dumps({"env": records[0]["env"]}))
    table(records, bench["per_layer" if args.trace else "end_to_end"])
    return worst


if __name__ == "__main__":
    sys.exit(main())
