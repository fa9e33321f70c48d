"""Command-line interface.

Subcommands: spectrum, check, classify, enumerate, rings-search, verify.
Every command takes --json, a stable canonical JSON document; spectrum,
enumerate and rings-search also take --csv, a CSV table.  Otherwise a
report renders as human-readable text, except that enumerate prints CSV.
Exit codes for `check`: 0 equal, 1 not equal, 2 error.  Its provenance
line reads "exact closed form", "numeric (certified intervals)", or, when
--assume-exact had to read an interval as a point to decide a branch,
"numeric (intervals read as exact)".

Importing this module runs only Click and the exact core: exact and
spectra.  The srg layer runs at the first srg source, ``classify``,
``enumerate`` or srg-shaped family, the ring layer (rings, fields) at the
first ring source or search, the graph layer (graphs, jacobi) at the
first family or file source, and verify, with the data it checks, only
under ``verify``.  So a command never runs a layer it does not use, nor
compiles one when no bytecode is cached.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
from typing import Optional

import click

from . import _lazy_module
from .exact import ExactValue
from .spectra import (
    Eig,
    UncertifiableBranch,
    check_equienergetic,
    discrepancy,
    energy,
)


# only the commands that read a graph, a ring profile or an srg tuple run these modules
G = _lazy_module("graphs")
R = _lazy_module("rings")
S = _lazy_module("srg")

# the two format flags share the destination ``fmt``; without either it is None
JSON_FLAG = click.option("--json", "fmt", flag_value="json", help="emit JSON")
CSV_FLAG = click.option("--csv", "fmt", flag_value="csv", help="emit CSV")
ASSUME_EXACT_FLAG = click.option("--assume-exact", is_flag=True,
                                 help="trust interval midpoints at delta branch points")


def _render_value(v) -> object:
    """An exact value (an int or an ExactValue) as its text, so that JSON
    carries it as a string; an interval as its midpoint and radius."""
    if type(v) is int or isinstance(v, ExactValue):
        return str(v)
    if type(v) is Eig:
        return {"approx": v.value, "radius": v.radius}
    return v


def _csv_text(header: list, rows) -> str:
    """The header row, unless it is None, then the rows, as csv writes them
    (each line ends in CRLF)."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit(report: dict, fmt: Optional[str]):
    """Write the report in one echo: as JSON, or as ``key: value`` lines,
    a nested object on one line and a spectrum one entry a line."""
    if fmt == "json":
        import json

        click.echo(json.dumps(report, indent=2))
        return
    lines = []
    for key, value in report.items():
        if key == "spectrum" and isinstance(value, dict):
            lines.append("spectrum:")
            for entry in value["entries"]:
                rendered = entry["value"]
                if isinstance(rendered, dict):
                    rendered = f"{rendered['approx']!r}(+-{rendered['radius']:g})"
                lines.append(f"  [{rendered}]^{entry['mult']}")
        elif isinstance(value, dict):
            inner = " ".join(f"{k2}={v2}" for k2, v2 in value.items())
            lines.append(f"{key}: {inner}")
        else:
            lines.append(f"{key}: {value}")
    click.echo("\n".join(lines))


# -- graph sources --------------------------------------------------------------------


@functools.cache
def _family_param_names() -> tuple[str, ...]:
    return tuple(dict.fromkeys(p for fam in G.FAMILIES.values() for p in fam.params))


# The family parameters are not options of the registered commands: Click's
# cost per call grows with each registered option, and a source command takes
# only the few that its family names.  Click leaves them in ctx.args, and
# _family_params parses those with a copy of the command that registers them.
FAMILY_ARGS = {"ignore_unknown_options": True, "allow_extra_args": True}


class _SourceCommand(click.Command):
    """A command that reads a graph source; its help ends with the family
    parameters, written from the family table only when help is shown."""

    def format_epilog(self, ctx: click.Context, formatter: click.HelpFormatter) -> None:
        self.epilog = "\b\nFamily parameters (integers) and the families that take them:\n" + (
            "\n".join(f"  --{name} N  "
                      f"{', '.join(f for f, fam in G.FAMILIES.items() if name in fam.params)}"
                      for name in _family_param_names()))
        super().format_epilog(ctx, formatter)


@functools.cache
def _with_family_options(command: click.Command) -> click.Command:
    return click.Command(command.name, params=[*command.params, *(
        click.Option([f"--{name}"], type=int) for name in _family_param_names())])


def _family_params(ctx: click.Context) -> dict:
    """The family parameters among the arguments Click left in ``ctx.args``,
    in ``_family_param_names()`` order; Click's errors and texts otherwise."""
    if not ctx.args:
        return {}
    command = _with_family_options(ctx.command)
    try:
        parsed = command.make_context(ctx.info_name, list(ctx.args), parent=ctx.parent).params
    except click.BadOptionUsage as exc:  # a missing value: Click prints no usage lines
        raise SourceError(exc.message)
    return {name: parsed[name] for name in _family_param_names() if parsed[name] is not None}


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
            fam, args = G.family_args(family, params)
            fam.guard(*args)
            exact = fam.spectrum(*args)
        except ValueError as exc:  # InfeasibleParams included
            raise SourceError(f"family {family} with {params}: {exc}")
        if exact is None:
            # built only within the eigensolver cap: a larger n x n array
            # may not fit in memory
            try:
                G._check_eigen_cap(fam.order(*args))
            except ValueError as exc:
                raise SourceError(str(exc))
            graph = fam.build(*args)
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
    return fn


class _Group(click.Group):
    """The command group.  A command in ``_LAZY_COMMANDS``, whose options
    read a deferred layer, is built at the first lookup of its name; the
    lookup of any other name not registered builds them all, so that an
    unknown name is still matched against every command."""

    def get_command(self, ctx: click.Context, cmd_name: str) -> Optional[click.Command]:
        if cmd_name not in self.commands:
            for name in [cmd_name] if cmd_name in _LAZY_COMMANDS else _LAZY_COMMANDS:
                if name not in self.commands:
                    self.add_command(_LAZY_COMMANDS[name]())
        return super().get_command(ctx, cmd_name)

    def list_commands(self, ctx: click.Context) -> list[str]:
        return sorted({*self.commands, *_LAZY_COMMANDS})


@click.group(cls=_Group)
def main():
    """Exact equienergy analysis of regular graphs and their complements."""


@main.command(cls=_SourceCommand, context_settings=FAMILY_ARGS)
@click.pass_context
@_source_options
@ASSUME_EXACT_FLAG
@JSON_FLAG
@CSV_FLAG
def spectrum(ctx, family, file, ring, srg, assume_exact, fmt):
    """Spectrum, energy and discrepancy breakdown of a graph source.

    A looped graph file is decided by n == 2k, so it has no breakdown.
    """
    label, spec, k, exact, loops = _load_source(family, file, ring, srg, _family_params(ctx))
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
        rows = [[e["value"] if isinstance(e["value"], str) else e["value"]["approx"],
                 e["mult"]] for e in report["spectrum"]["entries"]]
        click.echo(_csv_text(["value", "mult"], rows), nl=False)
        return
    _emit(report, fmt)


@main.command(cls=_SourceCommand, context_settings=FAMILY_ARGS)
@click.pass_context
@_source_options
@ASSUME_EXACT_FLAG
@JSON_FLAG
def check(ctx, family, file, ring, srg, assume_exact, fmt):
    """Equienergy verdict for a graph against its complement.

    A graph file whose header sets loops is compared with J - A.  Exit
    code 0 when equal, 1 when not, 2 on errors (including uncertifiable
    eigenvalue intervals).
    """
    label, spec, k, exact, loops = _load_source(family, file, ring, srg, _family_params(ctx))
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


SRG_COLUMNS = ["class", "alpha", "r", "s", "m_r", "m_s", "energy", "oa"]
ENUM_COLUMNS = ["n", "k", "e", "d", *SRG_COLUMNS]


def _srg_values(p: S.SrgParams, cls_name: str, data: S.SrgEigenData,
                oa: Optional[tuple[int, int]]) -> list:
    """The ``SRG_COLUMNS`` values that classify and enumerate print for a
    tuple, given its ``oa_params``."""
    return [cls_name, data.alpha, str(data.r), str(data.s), data.m_r, data.m_s,
            str(S.energy_closed(p, data)), f"OA({oa[0]},{oa[1]})" if oa else ""]


@main.command()
@click.option("--srg", required=True, help="strongly regular tuple n,k,e,d")
@JSON_FLAG
def classify(srg, fmt):
    """Classify an srg tuple under the complementary-equienergy trichotomy."""
    p, data = _parse_srg(srg, S.eigen_data)
    cls_name = _class_name(S.classify(p, data)) if S.is_primitive(p) else "imprimitive"
    payload = {"command": "classify", "params": str(p),
               **dict(zip(SRG_COLUMNS, _srg_values(p, cls_name, data, S.oa_params(p))))}
    _emit(payload, fmt)


def _enumerate_rows(bounds: tuple[int, int]) -> list[list]:
    """The enumerate rows of one shard n_min <= n <= n_max, in ``ENUM_COLUMNS`` order."""
    lo, hi = bounds
    return [[p.n, p.k, p.e, p.d, *_srg_values(p, _class_name(cls), data, oa)]
            for p, data, cls, oa in S.enumerate_equien(hi, n_min=lo)]


def _enumerate_command() -> click.Command:
    """The enumerate command; its --n-max range reads the srg layer's cap,
    so it is built at the first lookup of ``enumerate``, not on import."""

    @click.command()
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
                rows = [dict(zip(ENUM_COLUMNS, row)) for part in parts for row in part]
                _emit({"command": "enumerate", "n_max": n_max, "rows": rows}, fmt)
                return
            click.echo(_csv_text(ENUM_COLUMNS, []), nl=False)
            for part in parts:
                click.echo(_csv_text(None, part), nl=False)

    return enumerate


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
        click.echo(_csv_text([f"q{i + 1}" for i in range(s_factors)], hits), nl=False)
        return
    _emit(payload, fmt)


def _verify_command() -> click.Command:
    """The verify command; it imports the verify module, which builds the
    suites' data, so only ``verify`` runs them."""
    from . import verify as V

    @click.command()
    @click.argument("suite", type=click.Choice(sorted(V.SUITES)))
    @JSON_FLAG
    def verify(suite, fmt):
        """Run one verification suite; nonzero exit when any claim fails."""
        results = V.run_suite(suite)
        if fmt == "json":
            _emit({"command": "verify", "suite": suite, "results": [
                {"claim": r.claim, "passed": r.passed, "details": r.details} for r in results]},
                fmt)
        else:
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                line = f"[{mark}] {r.claim}"
                if r.details:
                    line += f"  ({r.details})"
                click.echo(line)
        if not all(r.passed for r in results):
            sys.exit(1)

    return verify


# the commands built at their first lookup, by name
_LAZY_COMMANDS = {"enumerate": _enumerate_command, "verify": _verify_command}

if __name__ == "__main__":
    main()
