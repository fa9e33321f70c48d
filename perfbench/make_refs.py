"""Rebuild the committed reference outputs under ``refs/``.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only when a change of behaviour is intended: the benchmark
treats these files as the truth, and ``run.py`` fails any run whose
output disagrees with them.

* ``enumerate_2500.csv`` is the stdout of ``enumerate --n-max 2500 --csv``
  (md5 ``a59dbe761a9cb4ae487ec3c02c0dae45``); every shorter run must print
  its prefix.
* ``rings.txt`` has one line per ring profile with 1-5 local factors and
  |R| <= 4096: ``profile n degree equal delta energy energy_complement``.
  The verdict is the criterion route, confirmed against the closed
  subset-sum route of ``equien_check``.
* ``graphs.jsonl`` has one line per base graph: family, adjacency (hex of
  the upper triangle) and, for the graph and for its complement, the
  exact verdict, delta and energies from the closed-form spectrum.  Every
  closed form is checked against ``numpy.linalg.eigvalsh`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

from equigraph import data as D
from equigraph import graphs as G
from equigraph import rings as R
from equigraph.cli import main
from equigraph.exact import Surd
from equigraph.spectra import check_equienergetic, complement_spectrum

from workloads import ENUM_MD5, ENUM_REF, GRAPHS_REF, RINGS_REF, encode_adjacency

RING_MAX_ORDER = 4096
RING_MAX_FACTORS = 5
GRAPH_MAX_N = 64


def make_enumerate() -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main.main(args=["enumerate", "--n-max", "2500", "--csv", "--jobs", "1"],
                  standalone_mode=False)
    raw = buf.getvalue().encode("utf-8")
    if hashlib.md5(raw).hexdigest() != ENUM_MD5:
        raise SystemExit("enumerate output does not match the published md5")
    ENUM_REF.write_bytes(raw)


def make_rings() -> None:
    lines = []
    for s in range(1, RING_MAX_FACTORS + 1):
        for profile in R.profiles_with_order_up_to(s, RING_MAX_ORDER):
            spec = R.unitary_spectrum(profile)
            report = check_equienergetic(spec, k=profile.units)
            if R.equien_check(profile).equal != report.equal or not report.routes_agree:
                raise SystemExit(f"decision routes disagree on {profile}")
            lines.append(" ".join(str(x) for x in (
                profile, spec.n, profile.units, int(report.equal), report.delta,
                report.energy, report.energy_complement)))
    RINGS_REF.write_text("\n".join(lines) + "\n", "utf-8")


def _prime_powers_1_mod_4(limit: int) -> list[int]:
    from equigraph.fields import is_prime_power
    return [q for q in range(5, limit + 1) if q % 4 == 1 and is_prime_power(q)]


def graph_population():
    """(id, family, graph, exact spectrum) for every base graph with n <= 64."""
    fam = []
    fam += [("crown", {"t": t}) for t in range(2, GRAPH_MAX_N // 2 + 1)]
    fam += [("lattice", {"n": n}) for n in range(2, 12)]
    fam += [("triangular", {"n": n}) for n in range(4, 17)]
    fam += [("paley", {"q": q}) for q in _prime_powers_1_mod_4(GRAPH_MAX_N)]
    fam += [(name, {}) for name in ("petersen", "shrikhande", "q3", "k3_prism")]
    fam += [("gp", {"k": 3, "q": 16}), ("gp", {"k": 3, "q": 64})]
    fam += [("complete_multipartite", {"a": a, "m": m})
            for a in range(2, 17) for m in range(a, 17) if a * m <= GRAPH_MAX_N]
    for family, params in fam:
        label = family + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"
        yield (label, family, G.gen_named(family, **params),
               D.exact_spectrum_of_family(family, **params))
    # catalog rows with a construction, minus those the named families cover
    seen = {"Q_3", "Petersen", "K_3 x K_2 (3-prism)"}
    for row in D.TABLE_INTEGRAL_CUBIC + D.TABLE_DISTANCE_TRANSITIVE_CUBIC:
        if row.build is None or row.name in seen:
            continue
        seen.add(row.name)
        yield f"catalog:{row.name}", "catalog", row.build(), row.spectrum


def _float(value) -> float:
    # ExactValue.__float__ returns an int for integer values, which float() rejects
    return float(value.__float__())


def _side(spec, k: int) -> dict:
    report = check_equienergetic(spec, k=k)
    branch = any(Surd(-1) <= eig.exact <= Surd(0) for eig, _ in spec.entries)
    return {"k": k, "equal": report.equal, "delta": str(report.delta),
            "energy": str(report.energy), "energy_f": _float(report.energy),
            "energy_complement": str(report.energy_complement),
            "energy_complement_f": _float(report.energy_complement),
            "branch": branch}


def _check_spectrum(label: str, adj: np.ndarray, spec) -> None:
    exact = sorted(float(eig.exact) for eig, m in spec.entries for _ in range(m))
    numeric = np.linalg.eigvalsh(adj.astype(np.float64))
    if len(exact) != len(numeric) or np.max(np.abs(np.array(exact) - numeric)) > 1e-8:
        raise SystemExit(f"closed-form spectrum of {label} disagrees with eigvalsh")


def make_graphs() -> None:
    lines = []
    for label, family, graph, spec in graph_population():
        k = G.regularity(graph)
        if k is None or spec is None:
            raise SystemExit(f"{label}: not regular or no closed form")
        _check_spectrum(label, graph.adj, spec)
        co_spec = complement_spectrum(spec, k)
        _check_spectrum("co-" + label, G.complement(graph).adj, co_spec)
        lines.append(json.dumps({
            "id": label, "family": family, "n": graph.n,
            "bits": encode_adjacency(graph.n, graph.edges()),
            "graph": _side(spec, k),
            "complement": _side(co_spec, graph.n - 1 - k),
        }))
    GRAPHS_REF.write_text("\n".join(lines) + "\n", "utf-8")


if __name__ == "__main__":
    ENUM_REF.parent.mkdir(exist_ok=True)
    make_enumerate()
    make_graphs()
    make_rings()
