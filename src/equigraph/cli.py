"""Command-line interface.

Subcommands: spectrum, check, classify, enumerate, rings-search, verify.
Every command takes --json, a stable canonical JSON document; spectrum,
enumerate and rings-search also take --csv, a CSV table.  Otherwise a
report renders as human-readable text, except that enumerate prints CSV.
Exit codes for `check`: 0 equal, 1 not equal, 2 error.  Its provenance
line reads "exact closed form", "numeric (certified intervals)", or, when
--assume-exact had to read an interval as a point to decide a branch,
"numeric (intervals read as exact)".
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from typing import Optional

import click

from . import data as D
from . import graphs as G
from . import rings as R
from . import srg as S
from .exact import ExactValue, format_surd
from .spectra import (
    Approximate,
    UncertifiableBranch,
    check_equienergetic,
    discrepancy,
    energy,
)
from .verify import SUITES, run_suite

# the two format flags share the destination ``fmt``; without either it is None
JSON_FLAG = click.option("--json", "fmt", flag_value="json", help="emit JSON")
CSV_FLAG = click.option("--csv", "fmt", flag_value="csv", help="emit CSV")


def _render_value(v) -> object:
    if isinstance(v, ExactValue):
        return str(v)
    if isinstance(v, Approximate):
        return {"approx": v.value, "radius": v.radius}
    return v


def _emit(report: dict, fmt: Optional[str]):
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=False))
        return
    for key, value in report.items():
        if key == "spectrum" and isinstance(value, dict):
            click.echo("spectrum:")
            for entry in value["entries"]:
                rendered = entry["value"]
                if isinstance(rendered, dict):
                    rendered = f"{rendered['approx']!r}(+-{rendered['radius']:g})"
                click.echo(f"  [{rendered}]^{entry['mult']}")
        elif isinstance(value, dict):
            inner = " ".join(f"{k2}={v2}" for k2, v2 in value.items())
            click.echo(f"{key}: {inner}")
        else:
            click.echo(f"{key}: {value}")


# -- graph sources --------------------------------------------------------------------


_FAMILY_PARAM_NAMES = tuple(dict.fromkeys(p for fam in G.FAMILIES.values() for p in fam.params))


def _family_params(kwargs) -> dict:
    return {name: kwargs[name] for name in _FAMILY_PARAM_NAMES if kwargs.get(name) is not None}


class SourceError(click.ClickException):
    exit_code = 2


def _parse_srg(text: str, derive):
    """Parse an n,k,e,d tuple into (params, derive(params)); any failure,
    including an infeasible tuple, is a SourceError."""
    try:
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated integers")
        p = S.SrgParams(*parts)
        return p, derive(p)
    except (ValueError, S.InfeasibleParams) as exc:
        raise SourceError(f"bad srg tuple {text!r}: {exc}")


def _build_within_cap(family: str, params: dict) -> G.Graph:
    """A family without a closed form, built only once its vertex count is
    within the eigensolver cap: a larger n x n array may not fit in memory."""
    fam, args = G.family_args(family, params)
    try:
        G._check_eigen_cap(fam.order(*args))
    except ValueError as exc:
        raise SourceError(str(exc))
    return fam.build(*args)


def _load_source(family: Optional[str], file: Optional[str], ring: Optional[str],
                 srg: Optional[str], params: dict):
    """Resolve the graph source options to (label, spectrum, k, exact, loops).

    A named family with a closed form is answered from it, k included;
    only a family without one is built and solved numerically.  Only a
    graph file can carry loops: ``loops`` is its header's flag, and every
    other source is loopless.
    """
    chosen = [x for x in (family, file, ring, srg) if x]
    if len(chosen) != 1:
        raise SourceError("provide exactly one of --family, --file, --ring, --srg")
    if family:
        try:
            exact = D.exact_spectrum_of_family(family, **params)  # runs the family's guard
        except ValueError as exc:  # InfeasibleParams included
            raise SourceError(f"family {family} with {params}: {exc}")
        graph = _build_within_cap(family, params) if exact is None else None
        k = G.regularity(graph) if exact is None else G.spectral_regularity(exact)
        if k is None:
            raise SourceError(f"family {family} with {params} is not regular")
        spec = exact if exact is not None else G.numeric_spectrum(graph)
        label = f"{family}({', '.join(f'{p}={v}' for p, v in params.items())})"
        return label, spec, k, exact is not None, False
    if file:
        try:
            with open(file, "r", encoding="utf-8") as fh:
                text = fh.read()
            graph = G.read_graph(text)
        except (OSError, ValueError) as exc:
            raise SourceError(str(exc))
        k = G.regularity(graph)
        if k is None:
            raise SourceError("graph in file is not regular")
        # read_graph has refused a header above the eigensolver cap
        return file, G.numeric_spectrum(graph), k, False, graph.loops_allowed
    if ring:
        try:
            profile = R.RingProfile.parse(ring)
        except ValueError as exc:
            raise SourceError(str(exc))
        spec = R.unitary_spectrum(profile)
        return f"ring {profile}", spec, profile.units, True, False
    p, spec = _parse_srg(srg, S.spectrum_of)
    return str(p), spec, p.k, True, False


def _source_options(fn):
    fn = click.option("--family", help="named family (crown, lattice, paley, gp, ...)")(fn)
    fn = click.option("--file", help="graph file: 'n loops' header then edge lines")(fn)
    fn = click.option("--ring", help="ring profile q1:m1,q2:m2,...")(fn)
    fn = click.option("--srg", help="strongly regular tuple n,k,e,d")(fn)
    for name in _FAMILY_PARAM_NAMES:
        fn = click.option(f"--{name}", type=int, default=None,
                          help=f"family parameter {name}")(fn)
    return fn


@click.group()
def main():
    """Exact equienergy analysis of regular graphs and their complements."""


@main.command()
@_source_options
@click.option("--assume-exact", is_flag=True,
              help="trust interval midpoints at delta branch points")
@JSON_FLAG
@CSV_FLAG
def spectrum(family, file, ring, srg, assume_exact, fmt, **params):
    """Spectrum, energy and discrepancy breakdown of a graph source.

    A looped graph file is decided by n == 2k, so it has no breakdown.
    """
    label, spec, k, exact, loops = _load_source(family, file, ring, srg, _family_params(params))
    report = {
        "command": "spectrum",
        "source": label,
        "n": spec.n,
        "degree": k,
        "exact": exact,
        "spectrum": spec.to_json_dict(),
        "energy": _render_value(energy(spec)),
    }
    if loops:
        report["discrepancy"] = None
    else:
        try:
            breakdown = discrepancy(spec, assume_exact=assume_exact)
            report["discrepancy"] = {
                "sigma": breakdown.sigma,
                "T": breakdown.T,
                "m0": breakdown.m0,
                "S": str(breakdown.S),
                "total": str(breakdown.delta_total),
            }
        except UncertifiableBranch as exc:
            report["discrepancy"] = f"uncertifiable: {exc}"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["value", "mult"])
        for entry in report["spectrum"]["entries"]:
            value = entry["value"]
            writer.writerow([value if isinstance(value, str) else value["approx"],
                             entry["mult"]])
        click.echo(out.getvalue().rstrip("\n"))
        return
    _emit(report, fmt)


@main.command()
@_source_options
@click.option("--assume-exact", is_flag=True,
              help="trust interval midpoints at delta branch points")
@JSON_FLAG
def check(family, file, ring, srg, assume_exact, fmt, **params):
    """Equienergy verdict for a graph against its complement.

    A graph file whose header sets loops is compared with J - A.  Exit
    code 0 when equal, 1 when not, 2 on errors (including uncertifiable
    eigenvalue intervals).
    """
    label, spec, k, exact, loops = _load_source(family, file, ring, srg, _family_params(params))
    provenance = "exact closed form" if exact else "numeric (certified intervals)"
    try:
        report = check_equienergetic(spec, k=k, loops=loops)
    except UncertifiableBranch as exc:
        if not assume_exact:
            raise SourceError(f"uncertifiable eigenvalue interval: {exc}")
        report = check_equienergetic(spec, k=k, loops=loops, assume_exact=True)
        provenance = "numeric (intervals read as exact)"
    payload = {
        "command": "check",
        "source": label,
        "n": spec.n,
        "degree": k,
        "equal": report.equal,
        "delta": None if report.delta is None else str(report.delta),
        "energy": _render_value(report.energy),
        "energy_complement": _render_value(report.energy_complement),
        "routes_agree": report.routes_agree,
        "provenance": provenance,
    }
    _emit(payload, fmt)
    sys.exit(0 if report.equal else 1)


def _class_name(cls) -> str:
    if isinstance(cls, S.Conference):
        return f"conference(d={cls.d})"
    if isinstance(cls, S.CaseB):
        return f"square-count(h={cls.h},l={cls.l})"
    if isinstance(cls, S.CaseC):
        return f"odd-square-count(h={cls.h},l={cls.l})"
    return f"not-equienergetic({cls.reason})" if cls.reason else "not-equienergetic"


def _srg_fields(p: S.SrgParams, cls_name: str, data: S.SrgEigenData) -> dict:
    """The class ... oa fields that classify and enumerate print for a tuple."""
    oa = S.oa_params(p)
    return {
        "class": cls_name,
        "alpha": data.alpha,
        "r": format_surd(data.r),
        "s": format_surd(data.s),
        "m_r": data.m_r,
        "m_s": data.m_s,
        "energy": str(S.energy_closed(p, data)),
        "oa": f"OA({oa[0]},{oa[1]})" if oa else "",
    }


@main.command()
@click.option("--srg", required=True, help="strongly regular tuple n,k,e,d")
@JSON_FLAG
def classify(srg, fmt):
    """Classify an srg tuple under the complementary-equienergy trichotomy."""
    p, data = _parse_srg(srg, S.eigen_data)
    cls_name = _class_name(S.classify(p, data)) if S.is_primitive(p) else "imprimitive"
    payload = {"command": "classify", "params": str(p), **_srg_fields(p, cls_name, data)}
    _emit(payload, fmt)


def _enumerate_rows(bounds: tuple[int, int]) -> list[dict]:
    """The enumerate rows of one shard n_min <= n <= n_max."""
    lo, hi = bounds
    return [{"n": p.n, "k": p.k, "e": p.e, "d": p.d,
             **_srg_fields(p, _class_name(cls), data)}
            for p, data, cls in S.enumerate_equien(hi, n_min=lo)]


ENUM_COLUMNS = ["n", "k", "e", "d", "class", "alpha", "r", "s", "m_r", "m_s", "energy", "oa"]


def _csv_text(rows: list[dict], header: bool = False) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=ENUM_COLUMNS)
    if header:
        writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@main.command()
@click.option("--n-max", type=click.IntRange(max=S.ENUMERATION_CAP), required=True,
              help="largest vertex count")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes")
@JSON_FLAG
@CSV_FLAG
def enumerate(n_max, jobs, fmt):
    """Stream every equienergetic parameter tuple with n <= N as CSV/JSON."""
    step = max(64, n_max // (4 * jobs))
    shards = [(lo, min(lo + step - 1, n_max)) for lo in range(2, n_max + 1, step)]
    workers = min(jobs, len(shards), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from multiprocessing import Pool
            parts = stack.enter_context(Pool(workers)).imap(_enumerate_rows, shards)
        else:
            parts = map(_enumerate_rows, shards)
        if fmt == "json":
            rows = [row for part in parts for row in part]
            click.echo(json.dumps({"command": "enumerate", "n_max": n_max, "rows": rows},
                                  indent=2))
            return
        click.echo(_csv_text([], header=True), nl=False)
        for part in parts:
            click.echo(_csv_text(part), nl=False)


@main.command("rings-search")
@click.option("--s", "s_factors", type=int, required=True, help="odd number of field factors")
@click.option("--qmax", type=int, required=True, help="largest field size")
@JSON_FLAG
@CSV_FLAG
def rings_search(s_factors, qmax, fmt):
    """Search products of s fields that are equienergetic with their complements."""
    try:
        hits = R.search_field_products(s_factors, qmax)
    except ValueError as exc:
        raise SourceError(str(exc))
    payload = {
        "command": "rings-search",
        "s": s_factors,
        "q_max": qmax,
        "solutions": [list(t) for t in hits],
    }
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow([f"q{i + 1}" for i in range(s_factors)])
        for t in hits:
            writer.writerow(list(t))
        click.echo(out.getvalue().rstrip("\n"))
        return
    _emit(payload, fmt)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@JSON_FLAG
def verify(suite, fmt):
    """Run one verification suite; nonzero exit when any claim fails."""
    results = run_suite(suite)
    if fmt == "json":
        click.echo(json.dumps({
            "command": "verify",
            "suite": suite,
            "results": [
                {"claim": r.claim, "passed": r.passed, "details": r.details}
                for r in results
            ],
        }, indent=2))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"[{mark}] {r.claim}"
            if r.details:
                line += f"  ({r.details})"
            click.echo(line)
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
