"""The benchmark's reference builder still reproduces its committed refs.

``perfbench/make_refs.py`` reads the library through ``Eig.exact``,
``Surd`` ordering, ``ExactValue.__float__``, ``equien_check(...).equal``,
``Graph.edges``, ``gen_named`` and ``exact_spectrum_of_family``.  These
tests rebuild rows of ``perfbench/refs/`` from it, as ``make_graphs`` and
``make_rings`` do, and compare them with the committed rows; nothing is
written under ``refs/``.
"""

import json
import sys
from itertools import islice
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import make_refs as M
from workloads import GRAPHS_REF, RINGS_REF, encode_adjacency

from equigraph import graphs as G
from equigraph import rings as R
from equigraph.spectra import check_equienergetic, complement_spectrum

RING_SAMPLE_STRIDE = 37


def test_graph_rows_match_the_committed_refs():
    committed = [json.loads(line) for line in GRAPHS_REF.read_text("utf-8").splitlines()]
    built = []
    for label, family, graph, spec in M.graph_population():
        k = G.regularity(graph)
        built.append({
            "id": label, "family": family, "n": graph.n,
            "bits": encode_adjacency(graph.n, graph.edges()),
            "graph": M._side(spec, k),
            "complement": M._side(complement_spectrum(spec, k), graph.n - 1 - k),
        })
    assert len(built) == len(committed)
    for got, want in zip(built, committed):
        assert got == want, want["id"]


def _ring_line(profile) -> str:
    spec = R.unitary_spectrum(profile)
    report = check_equienergetic(spec, k=profile.units)
    assert R.equien_check(profile).equal == report.equal and report.routes_agree, profile
    return " ".join(str(x) for x in (
        profile, spec.n, profile.units, int(report.equal), report.delta,
        report.energy, report.energy_complement))


def _profiles():
    for s in range(1, M.RING_MAX_FACTORS + 1):
        yield from R.profiles_with_order_up_to(s, M.RING_MAX_ORDER)


def test_ring_profiles_come_in_the_committed_order():
    committed = RINGS_REF.read_text("utf-8").splitlines()
    profiles = [str(p) for p in _profiles()]
    assert profiles == [line.split(" ", 1)[0] for line in committed]


def test_sampled_ring_lines_match_the_committed_refs():
    committed = RINGS_REF.read_text("utf-8").splitlines()
    sample = islice(zip(_profiles(), committed), 0, None, RING_SAMPLE_STRIDE)
    for profile, want in sample:
        assert _ring_line(profile) == want
