"""One benchmark run, in this process: one workload, one seed, one client.

    python3 perfbench/harness.py --workload ring_queries --seed 1 --seconds 30 --trace 0

``run.py`` starts this in a fresh process with the environment pinned;
run it directly only when debugging.  The client is a closed loop: each
item is one CLI argv handed to ``equigraph.cli.main`` in-process
(``standalone_mode=False``, stdout captured), and the next item starts
when the previous one has returned.  Items keep coming until their
summed latency reaches ``--seconds``; every output is checked against
the committed references as it arrives.

With ``--trace 0`` the run prints the end-to-end metrics, with item
times host-normalized where the workload allows it (see ``probe.py``).
With ``--trace 1`` it wraps the library's public functions (see
``tracing.py``) and prints the per-layer metrics; each block of traced
items is replayed untraced right after it, to measure what tracing cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import click  # noqa: E402

import workloads as W  # noqa: E402
from probe import PROBE_REF_S, host_probe, normalize  # noqa: E402
from tracing import MODULES, Tracer, summarize  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import equigraph.cli; "
                 "t = time.perf_counter() - t; from probe import host_probe; "
                 "print(repr(t), repr(host_probe(10)))")
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 99
TRACE_BLOCK_S = 1.0
PROBE_EVERY_S = 0.2

END_TO_END = [
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("answered_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("srg.enumerate_equien.self_s", "s"),
    ("srg.candidates", "count"),
    ("srg.rows", "count"),
    ("srg.accept_ratio", "ratio"),
    ("srg.equien_condition.calls", "count"),
    ("srg.equien_condition.s", "s"),
    ("srg.classify.s", "s"),
    ("srg.eigen_data.calls", "count"),
    ("srg.eigen_data.s", "s"),
    ("srg.energy_closed.s", "s"),
    ("exact.squarefree_decompose.calls", "count"),
    ("exact.squarefree_decompose.s", "s"),
    ("exact.Surd.new.calls", "count"),
    ("exact.Surd.compare.calls", "count"),
    ("exact.ExactValue.new.calls", "count"),
    ("spectra.Spectrum.new.calls", "count"),
    ("spectra.Spectrum.new.s", "s"),
    ("spectra.discrepancy.s", "s"),
    ("spectra.complement_spectrum.s", "s"),
    ("spectra.energy.s", "s"),
    ("spectra.check_equienergetic.s", "s"),
    ("spectra.uncertifiable.count", "count"),
    ("rings.unitary_spectrum.self_s", "s"),
    ("jacobi.jacobi_eigenvalues.calls", "count"),
    ("jacobi.jacobi_eigenvalues.s", "s"),
    ("jacobi.work_n3", "count"),
    ("jacobi.ns_per_n3", "ns"),
    ("graphs.numeric_spectrum.self_s", "s"),
    ("graphs.read_graph.s", "s"),
    ("cli.enumerate.self_s", "s"),
    ("cli.check.self_s", "s"),
    *[(f"layer.{m}.share", "ratio") for m in MODULES],
    ("layer.named.share", "ratio"),
    ("trace.items", "count"),
    ("trace.overhead_ratio", "ratio"),
]


@dataclass(frozen=True, slots=True)
class Sample:
    """What a run keeps per item; the item itself (argv, graph text) is
    dropped so that ``peak_rss_mb`` does not grow with the item count."""

    size: int
    latency: float
    verdict: str
    probe: float = PROBE_REF_S  # host probe time measured just before the item

    @property
    def norm_latency(self) -> float:
        return normalize(self.latency, self.probe)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile, up
    to p99, that leaves at least ten samples above it (nearest rank).

    Uncapped, the rule picks the eleventh-largest sample, which in a run of
    15,000 ring queries is p99.93: there the host's scheduling stalls, not
    the program, set the value (its spread over ten runs was 57%).  The
    percentile is continuous in the sample count rather than taken from a
    ladder, which would jump a rung when the count crosses a threshold.
    Below twenty samples the percentile would fall under the median, so
    the maximum is reported, as percentile 100 with no samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    if 100 * rank > TAIL_MAX_PERCENTILE * n:
        rank = -(-TAIL_MAX_PERCENTILE * n // 100)  # nearest rank: ceil(0.99 n)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def invoke(main, argv, buf: io.StringIO) -> W.Outcome:
    """Run one argv through the click group the way the console script does,
    with stdout captured in ``buf``.  Reuse one buffer: click caches a
    wrapper per stdout object and never drops it, so a fresh buffer per
    call grows the heap by the whole output of every call."""
    buf.seek(0)
    buf.truncate()
    code, error = 0, ""
    with contextlib.redirect_stdout(buf):
        try:
            rv = main.main(args=list(argv), prog_name="equigraph", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code, error = exc.exit_code, exc.format_message()
        except Exception as exc:  # a crash is a failed item, not the end of the run
            code, error = -1, f"{type(exc).__name__}: {exc}"
    return W.Outcome(code, buf.getvalue(), error)


class Client:
    """Closed-loop client: sends items, times them, gates their outputs."""

    def __init__(self, workload, main, work_dir: Path):
        self.workload = workload
        self.main = main
        self.graph_path = work_dir / "input.g"
        self.stdout = io.StringIO()
        self.call = invoke
        self.attempted = 0
        self.failed = 0

    def run_item(self, item: W.Item) -> Sample:
        argv = item.argv
        if item.graph_text is not None:
            self.graph_path.write_text(item.graph_text, "utf-8")
            argv = argv + (str(self.graph_path),)
        start = time.perf_counter()
        out = self.call(self.main, argv, self.stdout)
        latency = time.perf_counter() - start
        self.attempted += 1
        verdict = self.workload.gate(item, out)
        if verdict == W.FAILED:
            self.failed += 1
            print(f"failed item {item.key}: exit {out.code} {out.error}", file=sys.stderr)
        return Sample(item.size, latency, verdict)

    def run_for(self, items, seconds: float) -> list[Sample]:
        """Items until their latencies sum to ``seconds``, with the host
        probed before the first item and then whenever PROBE_EVERY_S of
        item time has passed (see ``probe.py``)."""
        samples: list[Sample] = []
        busy = 0.0
        since_probe = PROBE_EVERY_S
        while busy < seconds:
            if since_probe >= PROBE_EVERY_S:
                host = host_probe()
                since_probe = 0.0
            samples.append(replace(self.run_item(next(items)), probe=host))
            busy += samples[-1].latency
            since_probe += samples[-1].latency
        return samples

    def run_traced(self, tracer: Tracer, items, seconds: float) -> tuple[list, list]:
        """Traced items until their latencies sum to ``seconds``, each block
        of about TRACE_BLOCK_S replayed untraced right after it, so both
        sides of ``trace.overhead_ratio`` see the same host load."""
        traced_call = tracer.span(f"cli.{self.workload.command}", invoke)
        traced: list[Sample] = []
        replay: list[Sample] = []
        busy = 0.0
        while busy < seconds:
            block: list[W.Item] = []
            block_busy = 0.0
            self.call = traced_call
            tracer.install()
            try:
                while busy + block_busy < seconds and block_busy < TRACE_BLOCK_S:
                    block.append(next(items))
                    tracer.item = block[-1].index
                    traced.append(self.run_item(block[-1]))
                    block_busy += traced[-1].latency
            finally:
                tracer.uninstall()
                self.call = invoke
            replay.extend(self.run_item(item) for item in block)
            busy += block_busy
        return traced, replay


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(import time of ``equigraph.cli``, host probe right after it) in fresh
    interpreters; the first import (which may compile bytecode) is discarded.
    The probe takes the best of 10, because a fresh interpreter's first
    probes run cold."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s = done.stdout.split()
        times.append((float(seconds), float(probe_s)))
    return times[1:]


def timing(samples: list[Sample], latency) -> tuple[dict, float, int]:
    latencies = [latency(s) for s in samples]
    tail_value, tail_p, beyond = tail(latencies)
    return {
        "items_per_s": sum(s.size for s in samples) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_value * 1e3,
    }, tail_p, beyond


def end_to_end(workload, samples: list[Sample], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    wall, tail_p, beyond = timing(samples, lambda s: s.latency)
    if workload.host_normalized:
        metrics, tail_p, beyond = timing(samples, lambda s: s.norm_latency)
    else:
        metrics = dict(wall)
    metrics.update({
        "answered_ratio": sum(s.verdict == W.ANSWERED for s in samples) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(normalize(t, p) for t, p in setup),
    })
    details = {"item_tail_percentile": tail_p, "item_tail_samples_beyond": beyond,
               "samples": len(samples), "busy_s": sum(s.latency for s in samples),
               "wall_clock": dict(wall, setup_s=statistics.median(t for t, _ in setup)),
               "probe_ms": statistics.median(s.probe for s in samples) * 1e3,
               "setup_import_and_probe_s": setup}
    return metrics, details


def per_layer(workload, tracer: Tracer, traced: list[Sample], replay: list[Sample]) -> dict:
    summary = summarize(tracer.spans, tracer.counts)
    get = lambda name: summary.get(name, 0.0)
    jacobi_s = get("jacobi.jacobi_eigenvalues.s")
    work = get("jacobi.work_n3")
    derived = {
        "srg.accept_ratio": get("srg.rows") / get("srg.candidates") if get("srg.candidates") else 0.0,
        "jacobi.ns_per_n3": jacobi_s * 1e9 / work if work else 0.0,
        "spectra.uncertifiable.count":
            get("spectra.check_equienergetic.raised.UncertifiableBranch"),
        "layer.named.share": sum(get(f"layer.{m}.share") for m in workload.layers),
        "trace.items": len(traced),
        "trace.overhead_ratio":
            sum(s.latency for s in traced) / sum(s.latency for s in replay) - 1,
    }
    return {name: derived[name] if name in derived else get(name) for name, _ in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, details)."""
    if workload_name not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; known: {sorted(W.WORKLOADS)}")
    setup = [] if trace else measure_setup()
    import equigraph
    from equigraph.cli import main

    if SRC not in Path(equigraph.__file__).resolve().parents:
        raise SystemExit(f"equigraph was imported from {equigraph.__file__}, not from {SRC}")

    workload = W.WORKLOADS[workload_name]()
    workload.load()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    client = Client(workload, main, work_dir)
    try:
        for item in workload.warmup():
            client.run_item(item)
        # the references are long-lived; keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        items = workload.items(seed)
        if not trace:
            samples = client.run_for(items, seconds)
            metrics, details = end_to_end(workload, samples, setup)
            units = dict(END_TO_END)
        else:
            tracer = Tracer()
            samples, replay = client.run_traced(tracer, items, seconds)
            metrics = per_layer(workload, tracer, samples, replay)
            details = {"samples": len(samples), "spans": len(tracer.spans)}
            tracer.write(OUT_DIR / f"trace-{workload_name}-seed{seed}.csv.gz")
            units = dict(PER_LAYER)
    except W.WrongAnswer as exc:
        wrong = {"correct": False, "attempted": client.attempted, "failed": client.failed,
                 "metrics": {}}
        return wrong, {"wrong_answer": str(exc)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    details.update({"refused": sum(s.verdict == W.REFUSED for s in samples),
                    "answered": sum(s.verdict == W.ANSWERED for s in samples)})
    result = {
        "correct": True,
        "attempted": len(samples),
        "failed": sum(s.verdict == W.FAILED for s in samples),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
