"""Self-tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
from itertools import islice
from pathlib import Path

import pytest

import harness as H
import workloads as W
from tracing import Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[1]


# -- percentile rule -------------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 57, 100, 999])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    latencies = [float(i) for i in range(n)]
    random.Random(n).shuffle(latencies)
    value, percentile, beyond = H.tail(latencies)
    assert sum(x > value for x in latencies) == beyond == 10
    assert percentile == pytest.approx(100 * (n - 10) / n)


@pytest.mark.parametrize("n", [1000, 1001, 12345])
def test_tail_stops_at_p99(n):
    latencies = [float(i) for i in range(n)]
    random.Random(n).shuffle(latencies)
    value, percentile, beyond = H.tail(latencies)
    assert 99.0 <= percentile < 99.1
    assert sum(x > value for x in latencies) == beyond >= 10
    assert sum(x <= value for x in latencies) >= 0.99 * n


@pytest.mark.parametrize("n", [1, 4, 10, 11, 19])
def test_tail_below_twenty_samples_is_the_maximum(n):
    value, percentile, beyond = H.tail([float(i) for i in range(n)])
    assert (value, percentile, beyond) == (n - 1, 100.0, 0)


# -- self time -------------------------------------------------------------------------


def _span(name, start, end, parent, item=0, error=""):
    return [name, float(start), float(end), parent, item, error]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.check", 0, 10, -1),
        _span("spectra.energy", 1, 4, 0),
        _span("spectra.energy", 5, 9, 0),
        _span("exact.squarefree_decompose", 6, 7, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    summary = summarize(spans, {})
    assert summary["spectra.energy.calls"] == 2
    assert summary["spectra.energy.s"] == 7.0
    assert summary["layer.spectra.self_s"] == 6.0
    assert summary["layer.cli.share"] == pytest.approx(0.3)
    assert summary["layer.exact.share"] == pytest.approx(0.1)
    assert summary["trace.root_s"] == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("cli.check", 0, 10, -1),
        _span("spectra.energy", 1, 4, 0),
        _span("spectra.discrepancy", 3, 6, 0),
        _span("spectra.energy", 5, 12, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recursive_span_time_is_not_counted_twice():
    spans = [
        _span("cli.check", 0, 10, -1),
        _span("spectra.Spectrum.new", 1, 5, 0),
        _span("spectra.Spectrum.new", 2, 3, 1),
    ]
    summary = summarize(spans, {})
    assert summary["spectra.Spectrum.new.s"] == 4.0
    assert summary["spectra.Spectrum.new.calls"] == 2
    assert summary["spectra.Spectrum.new.self_s"] == 4.0


def test_tracer_restores_every_binding():
    import equigraph.cli as cli
    import equigraph.spectra as spectra
    from equigraph.exact import Surd

    before = (cli.check_equienergetic, spectra.check_equienergetic, Surd.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.check_equienergetic is spectra.check_equienergetic
        assert cli.check_equienergetic is not before[0]
        H.invoke(cli.main, ["check", "--srg", "16,6,2,2"], io.StringIO())
    finally:
        tracer.uninstall()
    assert (cli.check_equienergetic, spectra.check_equienergetic, Surd.__init__) == before
    names = {rec[0] for rec in tracer.spans}
    assert {"spectra.check_equienergetic", "spectra.discrepancy", "spectra.energy"} <= names
    assert tracer.counts["exact.Surd.new.calls"] > 0


# -- correctness gate --------------------------------------------------------------------


def _run_gate(workload, item: W.Item, tmp_path: Path) -> str:
    from equigraph.cli import main

    argv = item.argv
    if item.graph_text is not None:
        path = tmp_path / "g.txt"
        path.write_text(item.graph_text)
        argv = argv + (str(path),)
    return workload.gate(item, H.invoke(main, argv, io.StringIO()))


def _corrupt_line(src: Path, dst: Path, key_prefix: str, old: str, new: str) -> None:
    lines = src.read_text("utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key_prefix):
            assert old in line
            lines[i] = line.replace(old, new, 1)
            break
    else:
        raise AssertionError(f"no reference line starts with {key_prefix!r}")
    dst.write_text("\n".join(lines) + "\n", "utf-8")


def test_gate_rejects_corrupted_ring_row(tmp_path):
    profile = "3:1,5:1,5:1"  # equienergetic: energy 256 on both sides
    item = W.Item(0, profile, ("check", "--ring", profile, "--json"))
    good = W.RingQueries()
    good.load()
    assert _run_gate(good, item, tmp_path) == W.ANSWERED
    bad_ref = tmp_path / "rings.txt"
    _corrupt_line(W.RINGS_REF, bad_ref, profile + " ", " 256 256", " 256 257")
    bad = W.RingQueries()
    bad.load(bad_ref)
    with pytest.raises(W.WrongAnswer):
        _run_gate(bad, item, tmp_path)


def test_gate_rejects_corrupted_graph_row(tmp_path):
    good = W.NumericGraphs()
    good.load()
    member = good.by_key["petersen()"]
    item = W.Item(0, member["key"], ("check", "--file"),
                  graph_text=W.graph_file(member["n"], member["edges"], random.Random(0)))
    assert _run_gate(good, item, tmp_path) == W.ANSWERED
    bad_ref = tmp_path / "graphs.jsonl"
    _corrupt_line(W.GRAPHS_REF, bad_ref, '{"id": "petersen()"', '"delta": "', '"delta": "1')
    bad = W.NumericGraphs()
    bad.load(bad_ref)
    with pytest.raises(W.WrongAnswer):
        _run_gate(bad, item, tmp_path)


def test_corrupted_enumerate_reference_is_refused(tmp_path):
    raw = W.ENUM_REF.read_bytes()
    bad_ref = tmp_path / "enumerate.csv"
    bad_ref.write_bytes(raw.replace(b"5,2,0,1,", b"5,2,0,2,", 1))
    with pytest.raises(W.BadReference):
        W.SrgEnumerate().load(bad_ref)


def test_enumerate_gate_checks_the_prefix(tmp_path):
    workload = W.SrgEnumerate()
    workload.load()
    item = W.Item(0, "100", ("enumerate", "--n-max", "100", "--csv", "--jobs", "1"), size=100)
    assert _run_gate(workload, item, tmp_path) == W.ANSWERED
    wrong = W.Item(0, "99", item.argv, size=100)  # 100 has a row that 99 must not
    with pytest.raises(W.WrongAnswer):
        _run_gate(workload, wrong, tmp_path)


# -- seeding ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_items(name):
    first, second = W.WORKLOADS[name](), W.WORKLOADS[name]()
    first.load()
    second.load()
    a = list(islice(first.items(7), 200))
    assert a == list(islice(second.items(7), 200))
    assert a != list(islice(first.items(8), 200))


@pytest.mark.parametrize("seed", range(5))
def test_draws_keep_the_population_mix(seed):
    size = 1000
    order = W.golden_order(size, random.Random(seed).random())
    assert sorted(order) == list(range(size))
    for picks in (list(islice(W.quasi_random(seed, size), 100)), order[:100]):
        # every tenth of the sorted population gets 10 +- 2 of the first 100
        # draws; independent random draws would spread by +- 3 (one sd)
        counts = [sum(lo <= p < lo + 100 for p in picks) for lo in range(0, size, 100)]
        assert all(8 <= c <= 12 for c in counts), counts


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == H.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == H.PER_LAYER
