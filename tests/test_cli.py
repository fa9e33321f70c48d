import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import equigraph
from equigraph.cli import main
from equigraph.exact import TRIAL_DIVISION_MAX
from equigraph.graphs import petersen

from oracles import read_spectrum_json, write_graph


@pytest.fixture
def runner():
    return CliRunner()


def test_spectrum_crown(runner):
    result = runner.invoke(main, ["spectrum", "--family", "crown", "--t", "5"])
    assert result.exit_code == 0
    assert "energy: 16" in result.output


def test_spectrum_ring(runner):
    result = runner.invoke(main, ["spectrum", "--ring", "2:2", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    values = [(e["value"], e["mult"]) for e in payload["spectrum"]["entries"]]
    assert values == [("2", 1), ("0", 2), ("-2", 1)]
    # the embedded object is the canonical spectrum wire format
    spec = read_spectrum_json(payload["spectrum"])
    assert spec.n == 4 and spec.values[0] == (2, 1)


def test_spectrum_from_file(runner, tmp_path):
    path = tmp_path / "petersen.g"
    path.write_text(write_graph(petersen()))
    result = runner.invoke(main, ["spectrum", "--file", str(path), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    mults = [e["mult"] for e in payload["spectrum"]["entries"]]
    assert mults == [1, 5, 4]


def test_check_srg_exit_codes(runner):
    equal = runner.invoke(main, ["check", "--srg", "16,6,2,2"])
    assert equal.exit_code == 0
    unequal = runner.invoke(main, ["check", "--srg", "10,3,0,1"])
    assert unequal.exit_code == 1
    broken = runner.invoke(main, ["check", "--srg", "10,3,1,1"])
    assert broken.exit_code == 2


def test_check_family_and_ring(runner):
    tri = runner.invoke(main, ["check", "--family", "triangular", "--n", "7"])
    assert tri.exit_code == 1
    ring = runner.invoke(main, ["check", "--ring", "3:1,5:1,5:1"])
    assert ring.exit_code == 0


def test_check_file_needs_assume_exact_at_branch_points(runner, tmp_path):
    from equigraph.graphs import crown
    path = tmp_path / "crown3.g"
    path.write_text(write_graph(crown(3)))
    strict = runner.invoke(main, ["check", "--file", str(path)])
    assert strict.exit_code == 2        # numeric -1 eigenvalues straddle a branch point
    snapped = runner.invoke(main, ["check", "--file", str(path), "--assume-exact"])
    assert snapped.exit_code == 0       # crowns are equienergetic with their complements


def test_check_assume_exact_provenance_says_when_intervals_were_read_as_exact(runner, tmp_path):
    from equigraph.graphs import crown
    path = tmp_path / "crown3.g"
    path.write_text(write_graph(crown(3)))
    snapped = runner.invoke(main, ["check", "--file", str(path), "--assume-exact"])
    assert snapped.exit_code == 0
    assert "provenance: numeric (intervals read as exact)" in snapped.output
    assert "certified" not in snapped.output
    # the Petersen spectrum {3, 1^5, -2^4} is clear of (-1, 0): no reading needed
    path.write_text(write_graph(petersen()))
    for extra in ([], ["--assume-exact"]):
        certified = runner.invoke(main, ["check", "--file", str(path), *extra])
        assert certified.exit_code == 1
        assert "provenance: numeric (certified intervals)" in certified.output
    closed = runner.invoke(main, ["check", "--family", "crown", "--t", "3", "--assume-exact"])
    assert "provenance: exact closed form" in closed.output


def test_check_file_rejects_a_bad_loops_flag(runner, tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("4 7\n0 1\n1 2\n2 3\n3 0\n")
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert result.exit_code == 2
    assert "line 1" in result.output


# C6 with a loop at every vertex: A has spectrum {3, 2^2, 0^2, -1} and
# J - A has {3, 1, 0^2, -2^2}, both of energy 8; J - I - A has energy 10
LOOPED_C6 = "6 1\n" + "".join(f"{i} {i}\n{i} {(i + 1) % 6}\n" for i in range(6))


def test_check_file_with_loops_compares_with_j_minus_a(runner, tmp_path):
    path = tmp_path / "c6.g"
    path.write_text(LOOPED_C6)
    result = runner.invoke(main, ["check", "--file", str(path), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["degree"] == 3 and payload["equal"] and payload["routes_agree"]
    for key in ("energy", "energy_complement"):
        assert abs(payload[key]["approx"] - 8) <= payload[key]["radius"]


def test_spectrum_file_with_loops_reports_no_discrepancy(runner, tmp_path):
    # n == 2k decides a looped file, so no Delta breakdown is printed
    path = tmp_path / "c6.g"
    path.write_text(LOOPED_C6)
    result = runner.invoke(main, ["spectrum", "--file", str(path), "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["discrepancy"] is None
    text = runner.invoke(main, ["spectrum", "--file", str(path)])
    assert text.exit_code == 0
    assert "discrepancy: None" in text.output.splitlines()


def test_check_has_no_loops_flag(runner):
    result = runner.invoke(main, ["check", "--srg", "16,6,2,2", "--loops"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("header", ["0 0", "x 0", "-3 0"])
def test_check_file_rejects_a_bad_vertex_count(runner, tmp_path, header):
    path = tmp_path / "bad.g"
    path.write_text(f"{header}\n")
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert result.exit_code == 2        # an error, not the "not equal" verdict
    assert "line 1: vertex count must be a positive integer" in result.output


@pytest.mark.parametrize("family_args", [
    ["--family", "crown", "--t", "1"],
    ["--family", "paley", "--q", "6"],
    ["--family", "lattice", "--n", "1"],
    ["--family", "triangular", "--n", "2"],
])
def test_check_rejects_invalid_family_parameters(runner, family_args):
    result = runner.invoke(main, ["check", *family_args])
    assert result.exit_code == 2        # an error, not the "not equal" verdict
    assert result.output.startswith("Error: family ")


TRIANGULAR_80 = """command: check
source: triangular(n=80)
n: 3160
degree: 156
equal: False
delta: -3001
energy: 12320
energy_complement: 12166
routes_agree: True
provenance: exact closed form
"""

LATTICE_120 = """command: check
source: lattice(n=120)
n: 14400
degree: 238
equal: True
delta: -13923
energy: 56644
energy_complement: 56644
routes_agree: True
provenance: exact closed form
"""


def test_check_family_with_a_closed_form_builds_no_graph(runner, monkeypatch):
    from equigraph import graphs as G

    def refuse(*args, **kwargs):
        raise RuntimeError("a graph was built")
    monkeypatch.setattr(G, "gen_named", refuse)
    monkeypatch.setattr(G.Graph, "__init__", refuse)
    tri = runner.invoke(main, ["check", "--family", "triangular", "--n", "80"])
    assert (tri.exit_code, tri.output) == (1, TRIANGULAR_80)
    rook = runner.invoke(main, ["check", "--family", "lattice", "--n", "120"])
    assert (rook.exit_code, rook.output) == (0, LATTICE_120)


GP_1_7 = """command: check
source: gp(q=7, k=1)
n: 7
degree: 6
equal: False
delta: -6
energy: 12
energy_complement: 0
routes_agree: True
provenance: exact closed form
"""

GP_2_13 = """command: check
source: gp(q=13, k=2)
n: 13
degree: 6
equal: True
delta: 0
energy: 6 + 6*sqrt(13)
energy_complement: 6 + 6*sqrt(13)
routes_agree: True
provenance: exact closed form
"""


@pytest.mark.parametrize("gp_args, expected", [
    (["--k", "1", "--q", "7"], (1, GP_1_7)),     # K_7
    (["--k", "2", "--q", "13"], (0, GP_2_13)),   # Paley(13)
])
def test_gp_with_k_at_most_two_answers_from_its_closed_form(runner, monkeypatch, gp_args,
                                                            expected):
    from equigraph import graphs as G

    def refuse(*args, **kwargs):
        raise RuntimeError("a graph was built")
    monkeypatch.setattr(G, "gen_named", refuse)
    monkeypatch.setattr(G.Graph, "__init__", refuse)
    result = runner.invoke(main, ["check", "--family", "gp", *gp_args])
    assert (result.exit_code, result.output) == expected


@pytest.mark.parametrize("gp_args, closed_args", [
    (["--k", "1", "--q", "2"], ["--family", "complete", "--n", "2"]),
    (["--k", "1", "--q", "16"], ["--family", "complete", "--n", "16"]),
    (["--k", "2", "--q", "9"], ["--family", "paley", "--q", "9"]),
    (["--k", "2", "--q", "125"], ["--family", "paley", "--q", "125"]),
])
@pytest.mark.parametrize("command", [["check", "--json"], ["spectrum", "--json"]])
def test_gp_with_k_at_most_two_reports_as_complete_or_paley(runner, command, gp_args,
                                                            closed_args):
    gp = runner.invoke(main, [*command, "--family", "gp", *gp_args])
    closed = runner.invoke(main, [*command, *closed_args])
    gp_report, closed_report = json.loads(gp.output), json.loads(closed.output)
    assert gp_report.pop("source").startswith("gp(")
    closed_report.pop("source")
    assert (gp.exit_code, gp_report) == (closed.exit_code, closed_report)


@pytest.mark.parametrize("family_args", [
    ["--family", "complete_bipartite", "--a", "1", "--b", "1"],     # K_2
    ["--family", "complete_multipartite", "--a", "1", "--m", "3"],  # the empty graph on 3
])
def test_check_family_closed_form_with_a_zero_multiplicity(runner, family_args):
    result = runner.invoke(main, ["check", *family_args])
    assert result.exit_code == 1
    assert "routes_agree: True" in result.output


def test_check_file_above_eigensolver_cap(runner, tmp_path):
    from equigraph.graphs import MAX_EIGEN_N, cycle
    path = tmp_path / "big_cycle.g"
    path.write_text(write_graph(cycle(MAX_EIGEN_N + 1)))
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert result.exit_code == 2
    assert "eigensolver cap" in result.output


@pytest.mark.parametrize("command", ["check", "spectrum"])
@pytest.mark.parametrize("family_args, n", [
    (["--family", "cycle", "--n", "10000000"], 10000000),
    (["--family", "gp", "--k", "3", "--q", "607"], 607),   # not semiprimitive
])
def test_family_above_the_cap_is_refused_before_it_is_built(runner, monkeypatch, command,
                                                            family_args, n):
    from equigraph import graphs as G

    def refuse(*args, **kwargs):
        raise RuntimeError("a graph was built")
    monkeypatch.setattr(G.Graph, "__init__", refuse)
    tracemalloc.start()
    try:
        result = runner.invoke(main, [command, *family_args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert result.output == f"Error: n={n} above the 600 eigensolver cap\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_ring_with_an_ideal_of_size_zero_is_refused(runner, command):
    result = runner.invoke(main, [command, "--ring", "3:0"])
    assert result.exit_code == 2
    assert result.output == "Error: ideal size 0 must be at least 1\n"


_CONFERENCE_D_1E17 = ",".join(str(x) for x in (4 * 10 ** 17 + 1, 2 * 10 ** 17,
                                                10 ** 17 - 1, 10 ** 17))


@pytest.mark.parametrize("argv", [
    ["check", "--ring", "1000000000000000003:1"],
    ["check", "--family", "paley", "--q", "1000000000000000003"],
    ["classify", "--srg", _CONFERENCE_D_1E17],
])
def test_input_above_the_trial_division_bound_is_refused(runner, argv):
    # trial division of these arguments would run for hours
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert f"above the trial-division bound {TRIAL_DIVISION_MAX}\n" in result.output


def test_square_radicand_above_the_trial_division_bound_is_not_factored(runner):
    t = 10000019  # t * t is above the bound, and sqrt(t * t) is read off isqrt
    result = runner.invoke(main, ["check", "--family", "complete_bipartite",
                                  "--a", str(t), "--b", str(t)])
    assert result.exit_code == 1
    assert f"delta: {2 * t - 3}\n" in result.stdout


@pytest.mark.parametrize("command", ["check", "spectrum"])
@pytest.mark.parametrize("body", ["", "0 1\nx y z\n"])
def test_file_header_above_the_cap_is_refused_before_the_body(runner, tmp_path, command, body):
    # an n x n array for this header would not fit in memory
    path = tmp_path / "huge.g"
    path.write_text("1000000000 0\n" + body)
    result = runner.invoke(main, [command, "--file", str(path)])
    assert result.exit_code == 2
    assert "n=1000000000 above the 600 eigensolver cap" in result.output


@pytest.mark.parametrize("family, n, code", [
    ("lattice", 21, 0),        # n = 441; eigenvalues 40, 19 and -2
    ("triangular", 30, 1),     # n = 435; eigenvalues 56, 26 and -2
])
def test_check_file_near_the_eigensolver_cap_matches_the_closed_form(runner, tmp_path,
                                                                      family, n, code):
    from equigraph.graphs import gen_named
    path = tmp_path / f"{family}.g"
    path.write_text(write_graph(gen_named(family, n=n)))
    numeric = runner.invoke(main, ["check", "--file", str(path)])
    closed = runner.invoke(main, ["check", "--family", family, "--n", str(n)])
    assert numeric.exit_code == closed.exit_code == code
    fields = [dict(line.split(": ", 1) for line in out.output.splitlines())
              for out in (numeric, closed)]
    for key in ("n", "degree", "equal", "delta", "routes_agree"):
        assert fields[0][key] == fields[1][key], key


def test_check_rejects_ambiguous_source(runner):
    result = runner.invoke(main, ["check", "--family", "crown", "--t", "3",
                                  "--ring", "2:2"])
    assert result.exit_code == 2


def test_classify_conference(runner):
    result = runner.invoke(main, ["classify", "--srg", "25,12,5,6", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["class"] == "conference(d=6)"
    assert payload["oa"] == "OA(5,3)"


def test_classify_rejects_garbage(runner):
    result = runner.invoke(main, ["classify", "--srg", "1,2,3"])
    assert result.exit_code == 2


def test_enumerate_csv(runner):
    result = runner.invoke(main, ["enumerate", "--n-max", "30"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,k,e,d,class,alpha,r,s,m_r,m_s,energy,oa"
    assert any(line.startswith("16,6,2,2,") for line in lines)
    # every non-conference row carries an OA column entry
    for line in lines[1:]:
        if "conference" not in line:
            assert "OA(" in line


def test_enumerate_deterministic(runner):
    a = runner.invoke(main, ["enumerate", "--n-max", "50", "--json"])
    b = runner.invoke(main, ["enumerate", "--n-max", "50", "--json"])
    assert a.output == b.output


def test_enumerate_jobs_matches_serial(runner):
    serial = runner.invoke(main, ["enumerate", "--n-max", "120"])
    parallel = runner.invoke(main, ["enumerate", "--n-max", "120", "--jobs", "2"])
    assert serial.output == parallel.output


def test_enumerate_rejects_nonpositive_jobs(runner):
    for jobs in ("0", "-3"):
        result = runner.invoke(main, ["enumerate", "--n-max", "30", "--jobs", jobs])
        assert result.exit_code == 2
        assert "Error" in result.output


def test_enumerate_starts_at_most_one_worker_per_shard_and_cpu(runner, monkeypatch):
    import multiprocessing
    import os

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, shards):
            return map(fn, shards)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    serial = runner.invoke(main, ["enumerate", "--n-max", "300"])
    # n <= 300 splits into 5 shards of 64 vertex counts
    for cpus, workers in ((64, 5), (3, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        result = runner.invoke(main, ["enumerate", "--n-max", "300", "--jobs", str(10 ** 6)])
        assert result.exit_code == 0
        assert result.output == serial.output
        assert started.pop() == workers


def test_enumerate_rejects_n_max_above_the_cap(runner):
    from equigraph.srg import ENUMERATION_CAP

    result = runner.invoke(main, ["enumerate", "--n-max", str(ENUMERATION_CAP + 1)])
    assert result.exit_code == 2
    assert "Error" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_enumerate_finds_the_oa_parameters_of_each_row_once(runner, monkeypatch):
    from equigraph import srg
    calls = []
    real = srg.oa_params
    monkeypatch.setattr(srg, "oa_params", lambda p: calls.append(p) or real(p))
    result = runner.invoke(main, ["enumerate", "--n-max", "300", "--csv"])
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) > 100 and any(row[-1] for row in rows)
    assert calls == [srg.SrgParams(*map(int, row[:4])) for row in rows]


def test_rings_search_cli(runner):
    result = runner.invoke(main, ["rings-search", "--s", "3", "--qmax", "16", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["solutions"] == [[3, 4, 7], [3, 5, 5], [4, 4, 4]]


def test_verify_table1(runner):
    result = runner.invoke(main, ["verify", "table1"])
    assert result.exit_code == 0
    assert "[PASS]" in result.output
    assert "[FAIL]" not in result.output


def test_verify_table2(runner):
    result = runner.invoke(main, ["verify", "table2"])
    assert result.exit_code == 0
    assert "[PASS]" in result.output
    assert "[FAIL]" not in result.output


def test_verify_crowns_json(runner):
    result = runner.invoke(main, ["verify", "crowns", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert all(r["passed"] for r in payload["results"])


@pytest.mark.parametrize("argv", [
    ["check", "--ring", "2:2", "--csv"],
    ["classify", "--srg", "25,12,5,6", "--csv"],
    ["verify", "table3", "--csv"],
    ["check", "--ring", "2:2", "--format", "json"],
    ["spectrum", "--ring", "2:2", "--format", "csv"],
    ["enumerate", "--n-max", "30", "--format", "json"],
    ["rings-search", "--s", "3", "--qmax", "16", "--format", "pretty"],
    ["verify", "table3", "--format", "json"],
])
def test_format_flags_only_where_the_format_renders(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_csv_flag_renders_on_spectrum_enumerate_and_rings_search(runner):
    spectrum = runner.invoke(main, ["spectrum", "--ring", "2:2", "--csv"])
    assert spectrum.output.splitlines() == ["value,mult", "2,1", "0,2", "-2,1"]
    enum_default = runner.invoke(main, ["enumerate", "--n-max", "30"])
    assert enum_default.output == runner.invoke(main, ["enumerate", "--n-max", "30",
                                                       "--csv"]).output
    assert enum_default.output.startswith("n,k,e,d,class,")
    search = runner.invoke(main, ["rings-search", "--s", "3", "--qmax", "8", "--csv"])
    assert search.output.splitlines() == ["q1,q2,q3", "3,4,7", "3,5,5", "4,4,4"]


def test_verify_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "nonsense"])
    assert result.exit_code == 2


@pytest.fixture
def unbuilt_verify(monkeypatch):
    """``main`` as a fresh import leaves it: ``enumerate`` and ``verify``
    not built yet."""
    for name in ("enumerate", "verify"):
        monkeypatch.delitem(main.commands, name, raising=False)


def test_help_lists_the_lazily_added_verify_in_its_place(runner, unbuilt_verify):
    output = runner.invoke(main, ["--help"]).output
    listed = [line.split()[0] for line in output.split("Commands:\n")[1].splitlines()]
    assert listed == ["check", "classify", "enumerate", "rings-search", "spectrum", "verify"]


def test_an_unknown_command_is_matched_against_verify_too(runner, unbuilt_verify):
    result = runner.invoke(main, ["verif"])
    assert (result.exit_code, result.output.splitlines()[-1]) == (
        2, "Error: No such command 'verif'. Did you mean 'verify'?")


def test_verify_offers_exactly_the_suites(runner, unbuilt_verify):
    from equigraph.verify import SUITES
    choice = "{" + "|".join(sorted(SUITES)) + "}"
    usage = runner.invoke(main, ["verify", "--help"]).output.split("\n\n")[0]
    assert "".join(line.strip() for line in usage.splitlines()).endswith(f" {choice}")
    error = runner.invoke(main, ["verify", "nosuch"])
    assert (error.exit_code, error.output.splitlines()[-1]) == (
        2, f"Error: Invalid value for '{choice}': 'nosuch' is not one of "
           f"{', '.join(repr(name) for name in sorted(SUITES))}.")


def test_verify_is_built_once(unbuilt_verify):
    ctx = click.Context(main)
    first = main.get_command(ctx, "verify")
    assert first is not None and main.get_command(ctx, "verify") is first
    assert main.get_command(ctx, "nosuch") is None and main.commands["verify"] is first


ENUMERATE_2500 = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "enumerate_2500.csv"


def test_enumerate_2500_csv_fingerprint(runner):
    expected = ENUMERATE_2500.read_bytes()
    assert hashlib.md5(expected).hexdigest() == "a59dbe761a9cb4ae487ec3c02c0dae45"
    result = runner.invoke(main, ["enumerate", "--n-max", "2500", "--csv"])
    assert result.exit_code == 0
    assert result.stdout_bytes == expected  # csv rows end in \r\n


def test_enumerate_10000_csv_fingerprint(runner):
    """The cap's CSV: 7,302 lines (header included) with a pinned md5."""
    result = runner.invoke(main, ["enumerate", "--n-max", "10000", "--csv"])
    assert result.exit_code == 0
    assert result.stdout_bytes.count(b"\r\n") == 7302
    assert hashlib.md5(result.stdout_bytes).hexdigest() == "2a758e466c0a06d41811b6dd30ad6e1b"


def test_rings_search_fingerprint(runner):
    result = runner.invoke(main, ["rings-search", "--s", "3", "--qmax", "64", "--csv"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["q1,q2,q3", "3,4,7", "3,5,5", "4,4,4"]


def test_verify_reports_a_faulty_generator_as_a_fail_row(runner, monkeypatch):
    from equigraph import srg as S
    from equigraph import verify as V
    real = S._theorem_range
    extra = S.SrgParams(4, 2, 0, 2)  # OA(2, 2): classify rejects it
    monkeypatch.setattr(S, "_theorem_range", lambda n_max, n_min=2: [
        *([extra] if n_min <= 4 <= n_max else []), *real(n_max, n_min)])
    monkeypatch.setitem(V.SUITES, "srg-families", lambda: V.verify_srg_enumeration(30, 30))
    result = runner.invoke(main, ["verify", "srg-families"])
    assert result.exit_code == 1
    first = result.output.splitlines()[0]
    assert first.startswith("[FAIL] every enumerated tuple (n <= 30)") and "srg(4,2,0,2)" in first


# -- entry order of irrational and mixed spectra, pinned literally ------------------

def _conference_13_json(source):
    entries = [("6", 1), ("-1/2 + 1/2*sqrt(13)", 6), ("-1/2 - 1/2*sqrt(13)", 6)]
    return json.dumps({
        "command": "spectrum", "source": source, "n": 13, "degree": 6, "exact": True,
        "spectrum": {"n": 13, "entries": [{"value": v, "mult": m} for v, m in entries],
                     "principal": 0},
        "energy": "6 + 6*sqrt(13)",
        "discrepancy": {"sigma": 0, "T": 0, "m0": 0, "S": "0", "total": "0"},
    }, indent=2) + "\n"


def test_irrational_spectra_print_in_a_pinned_order(runner):
    cases = [
        (["spectrum", "--family", "paley", "--q", "13", "--json"], 0,
         _conference_13_json("paley(q=13)")),
        (["spectrum", "--srg", "13,6,2,3", "--json"], 0, _conference_13_json("srg(13,6,2,3)")),
        # K_{2,3} is not regular, so it has no report; its closed form is pinned in test_data
        (["spectrum", "--family", "complete_bipartite", "--a", "2", "--b", "3", "--json"], 2,
         ""),
        (["check", "--srg", "101,50,24,25"], 0,
         "command: check\n"
         "source: srg(101,50,24,25)\n"
         "n: 101\n"
         "degree: 50\n"
         "equal: True\n"
         "delta: 0\n"
         "energy: 50 + 50*sqrt(101)\n"
         "energy_complement: 50 + 50*sqrt(101)\n"
         "routes_agree: True\n"
         "provenance: exact closed form\n"),
    ]
    for argv, code, stdout in cases:
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.stdout) == (code, stdout), argv


# -- family parameters, read from the arguments Click leaves unparsed ----------------

_USAGE = "Usage: main check [OPTIONS]\nTry 'main check --help' for help.\n\n"


@pytest.mark.parametrize("argv, same_as", [
    (["--family", "crown", "--t=5"], ["--family", "crown", "--t", "5"]),
    (["--family", "crown", "--t", "5", "--t", "6"], ["--family", "crown", "--t", "6"]),
    # the value of the last copy is the one converted
    (["--family", "crown", "--t", "abc", "--t", "6"], ["--family", "crown", "--t", "6"]),
    (["--t", "5", "--family", "crown"], ["--family", "crown", "--t", "5"]),
    (["--family", "crown", "--t", "+5"], ["--family", "crown", "--t", "5"]),
    (["--ring", "2:2", "--t", "5"], ["--ring", "2:2"]),
])
def test_family_parameter_spellings_match_the_plain_form(runner, argv, same_as):
    got, want = runner.invoke(main, ["check", *argv]), runner.invoke(main, ["check", *same_as])
    assert want.exit_code == 0
    assert (got.exit_code, got.output) == (want.exit_code, want.output)


@pytest.mark.parametrize("argv, output", [
    (["--family", "cycle", "--n", "-3"],
     "Error: family cycle with {'n': -3}: cycle needs n >= 3\n"),
    # the parameters reach the family in _family_param_names() order, whatever the argv order
    (["--family", "lattice", "--n", "5", "--t", "3"],
     "Error: family lattice with {'t': 3, 'n': 5}: family 'lattice' takes parameters ('n',)\n"),
    (["--family", "crown", "--t", "abc"],
     _USAGE + "Error: Invalid value for '--t': 'abc' is not a valid integer.\n"),
    (["--family", "crown", "--t", "6", "--t", "abc"],
     _USAGE + "Error: Invalid value for '--t': 'abc' is not a valid integer.\n"),
    (["--family", "crown", "--n", "xyz", "--t", "abc"],
     _USAGE + "Error: Invalid value for '--n': 'xyz' is not a valid integer.\n"),
    (["--family", "crown", "--t", "abc", "foo"],
     _USAGE + "Error: Invalid value for '--t': 'abc' is not a valid integer.\n"),
    (["--family", "crown", "--t", "--zz"],
     _USAGE + "Error: Invalid value for '--t': '--zz' is not a valid integer.\n"),
    (["--family", "crown", "--t"], "Error: Option '--t' requires an argument.\n"),
    # the value slot holds one of check's own options: Click takes that option,
    # so --t has no value
    (["--family", "crown", "--t", "--json"], "Error: Option '--t' requires an argument.\n"),
    (["--family", "crown", "--zz", "1"], _USAGE + "Error: No such option '--zz'.\n"),
    (["--family", "crown", "--zz", "--t"], _USAGE + "Error: No such option '--zz'.\n"),
    (["--srg", "16,6,2,2", "--loops"],
     _USAGE + "Error: No such option '--loops'. Did you mean '--help'?\n"),
    (["--family", "crown", "--tt", "5"],
     _USAGE + "Error: No such option '--tt'. Did you mean '--t'?\n"),
    (["--family", "crown", "--nn", "5"],
     _USAGE + "Error: No such option '--nn'. (Did you mean one of: '--json', '--n', '--ring'?)\n"),
    (["--family", "crown", "-t5"], _USAGE + "Error: No such option '-t'.\n"),
    (["--family", "crown", "--t", "5", "-3"], _USAGE + "Error: No such option '-3'.\n"),
    (["--ring", "2:2", "foo"], _USAGE + "Error: Got unexpected extra argument (foo)\n"),
    (["--family", "crown", "--t", "5", "6", "-"],
     _USAGE + "Error: Got unexpected extra arguments (6 -)\n"),
])
def test_family_parameter_errors_keep_clicks_text(runner, argv, output):
    result = runner.invoke(main, ["check", *argv])
    assert (result.exit_code, result.output) == (2, output)


def test_spectrum_reads_family_parameters_as_check_does(runner):
    result = runner.invoke(main, ["spectrum", "--family", "paley", "--q=13", "--json"])
    assert (result.exit_code, result.stdout) == (0, _conference_13_json("paley(q=13)"))
    stray = runner.invoke(main, ["spectrum", "--ring", "2:2", "x"])
    assert stray.exit_code == 2
    assert stray.output.endswith("Error: Got unexpected extra argument (x)\n")


@pytest.mark.parametrize("argv, code", [
    (["--ring", "2:2", "--json"], 0),
    (["--srg", "16,6,2,2"], 0),
    (["--file", "{path}"], 1),
])
def test_a_source_without_family_parameters_builds_no_third_context(runner, monkeypatch,
                                                                     tmp_path, argv, code):
    # the group's context and the command's: family parameters are parsed in
    # a third one only when Click left arguments over
    path = tmp_path / "petersen.g"
    path.write_text(write_graph(petersen()))
    init, contexts = click.Context.__init__, []

    def counting_init(self, command, *args, **kwargs):
        contexts.append(command.name)
        init(self, command, *args, **kwargs)

    monkeypatch.setattr(click.Context, "__init__", counting_init)
    result = runner.invoke(main, ["check", *(a.format(path=path) for a in argv)])
    assert result.exit_code == code
    assert contexts == ["main", "check"]


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_help_lists_every_family_parameter_and_click_registers_none(runner, command):
    from equigraph import graphs as G
    names = {p for fam in G.FAMILIES.values() for p in fam.params}
    assert not names & {p.name for p in main.commands[command].params}
    lines = runner.invoke(main, [command, "--help"]).output.splitlines()
    for name in names:
        line, = [ln for ln in lines if ln.split()[:1] == [f"--{name}"]]
        assert set(line.split(None, 2)[2].split(", ")) == {
            f for f, fam in G.FAMILIES.items() if name in fam.params}


def test_integral_check_builds_no_eig(runner, monkeypatch):
    from equigraph.spectra import Eig
    calls = []
    monkeypatch.setattr(Eig, "from_exact", lambda x: calls.append(x))
    result = runner.invoke(main, ["check", "--ring", "4:2,9:1", "--json"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["delta"] == "49"
    assert calls == []


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_integral_ring_report_builds_no_exact_value(runner, monkeypatch, command):
    from equigraph.exact import ExactValue
    calls = []
    for name in ("__init__", "_from_squarefree", "from_rational"):
        def counted(*args, _real=getattr(ExactValue, name)):
            calls.append(name)
            return _real(*args)
        monkeypatch.setattr(ExactValue, name, counted if name == "__init__" else staticmethod(counted))
    result = runner.invoke(main, [command, "--ring", "4:2,9:1", "--json"])
    assert result.exit_code == (1 if command == "check" else 0)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["check", "--ring", "4:2,9:1", "--json"],
    ["spectrum", "--ring", "4:2,9:1", "--json"],
    ["check", "--srg", "16,6,2,2", "--json"],
    ["spectrum", "--srg", "16,6,2,2", "--json"],
])
def test_exact_values_print_as_json_strings(runner, argv):
    payload = json.loads(runner.invoke(main, argv).stdout)
    if argv[0] == "check":
        values = [payload["delta"], payload["energy"], payload["energy_complement"]]
    else:
        values = [payload["energy"], payload["discrepancy"]["S"], payload["discrepancy"]["total"]]
    assert all(type(v) is str and v.lstrip("-").isdigit() for v in values), values


def test_a_text_check_report_is_written_at_once(runner, monkeypatch):
    calls = []
    echo = click.echo
    monkeypatch.setattr(click, "echo", lambda *args, **kwargs: calls.append(args) or echo(
        *args, **kwargs))
    result = runner.invoke(main, ["check", "--srg", "16,6,2,2"])
    assert result.exit_code == 0 and len(calls) == 1
    assert result.stdout == (
        "command: check\n"
        "source: srg(16,6,2,2)\n"
        "n: 16\n"
        "degree: 6\n"
        "equal: True\n"
        "delta: -3\n"
        "energy: 36\n"
        "energy_complement: 36\n"
        "routes_agree: True\n"
        "provenance: exact closed form\n")


def test_srg_check_factors_its_radicand_once(runner, monkeypatch):
    from equigraph import exact
    calls = []
    original = exact.squarefree_decompose

    def counted(d):
        calls.append(d)
        return original(d)
    monkeypatch.setattr(exact, "squarefree_decompose", counted)
    result = runner.invoke(main, ["check", "--srg",
                                  "1000000000041,500000000020,250000000009,250000000010"])
    assert (result.exit_code, result.stdout) == (0, (
        "command: check\n"
        "source: srg(1000000000041,500000000020,250000000009,250000000010)\n"
        "n: 1000000000041\n"
        "degree: 500000000020\n"
        "equal: True\n"
        "delta: 0\n"
        "energy: 500000000020 + 500000000020*sqrt(1000000000041)\n"
        "energy_complement: 500000000020 + 500000000020*sqrt(1000000000041)\n"
        "routes_agree: True\n"
        "provenance: exact closed form\n"))
    assert calls == [1000000000041]


@pytest.mark.parametrize("argv, output", [
    (["classify", "--srg", "10,3,1,1"],
     "Error: bad srg tuple '10,3,1,1': counting identity fails for srg(10,3,1,1)\n"),
    (["check", "--srg", "10,10,1,1"],
     "Error: bad srg tuple '10,10,1,1': need 0 < k < n - 1, got srg(10,10,1,1)\n"),
])
def test_srg_refusals_print_the_formatted_tuple(runner, argv, output):
    result = runner.invoke(main, argv)
    assert (result.exit_code, result.output) == (2, output)


def test_srg_classify_factors_its_radicand_once(runner, monkeypatch):
    # the conference energy reuses the radicand that eigen_data reduced
    from equigraph import exact
    calls = []
    original = exact.squarefree_decompose

    def counted(d):
        calls.append(d)
        return original(d)
    monkeypatch.setattr(exact, "squarefree_decompose", counted)
    result = runner.invoke(main, ["classify", "--srg",
                                  "1000000000041,500000000020,250000000009,250000000010"])
    assert (result.exit_code, result.stdout) == (0, (
        "command: classify\n"
        "params: srg(1000000000041,500000000020,250000000009,250000000010)\n"
        "class: conference(d=250000000010)\n"
        "alpha: 1000000000041\n"
        "r: -1/2 + 1/2*sqrt(1000000000041)\n"
        "s: -1/2 - 1/2*sqrt(1000000000041)\n"
        "m_r: 500000000020\n"
        "m_s: 500000000020\n"
        "energy: 500000000020 + 500000000020*sqrt(1000000000041)\n"
        "oa: \n"))
    assert calls == [1000000000041]


def test_family_without_closed_form_is_built_solved_and_refused(runner):
    # C_7 has no closed form here: it is built within the cap and solved, and
    # 2cos(4pi/7) ~ -0.445 lies in (-1, 0)
    refused = runner.invoke(main, ["check", "--family", "cycle", "--n", "7"])
    assert refused.exit_code == 2
    assert refused.output.startswith("Error: uncertifiable eigenvalue interval: interval [-0.445")
    assert refused.output.endswith("] is not certifiably clear of (-1, 0)\n")
    assumed = runner.invoke(main, ["check", "--family", "cycle", "--n", "7", "--assume-exact"])
    assert assumed.exit_code == 1
    lines = assumed.stdout.splitlines()
    assert lines[:5] == ["command: check", "source: cycle(n=7)", "n: 7", "degree: 2",
                         "equal: False"]
    assert lines[6].startswith("energy: approx=") and lines[7].startswith(
        "energy_complement: approx=")
    assert lines[8:] == ["routes_agree: True", "provenance: numeric (intervals read as exact)"]


def test_spectrum_file_reports_an_uncertifiable_discrepancy(runner, tmp_path):
    from equigraph.graphs import cycle
    path = tmp_path / "c8.g"
    path.write_text(write_graph(cycle(8)))
    result = runner.invoke(main, ["spectrum", "--file", str(path)])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[4:6] == ["exact: False", "spectrum:"]
    assert [line.rsplit("^", 1)[1] for line in lines[6:11]] == ["1", "2", "2", "2", "1"]
    assert lines[-1].startswith("discrepancy: uncertifiable: interval [")
    assert lines[-1].endswith("] is not certifiably clear of (-1, 0)")


def test_check_file_refuses_an_irregular_graph(runner, tmp_path):
    path = tmp_path / "path3.g"
    path.write_text("3 0\n0 1\n1 2\n")
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert (result.exit_code, result.output) == (2, "Error: graph in file is not regular\n")


def test_rings_search_refuses_an_even_factor_count(runner):
    result = runner.invoke(main, ["rings-search", "--s", "4", "--qmax", "10"])
    assert (result.exit_code, result.output) == (2, "Error: search applies to odd s >= 3\n")


def test_ring_with_an_ideal_beyond_the_float_range_answers_exactly(runner):
    m = 2 ** 1024
    result = runner.invoke(main, ["check", "--ring", f"2:{m}"])
    assert (result.exit_code, result.stdout) == (1, (
        "command: check\n"
        f"source: ring 2:{m}\n"
        f"n: {2 * m}\n"
        f"degree: {m}\n"
        "equal: False\n"
        f"delta: {2 * m - 3}\n"
        f"energy: {2 * m}\n"
        f"energy_complement: {4 * m - 4}\n"
        "routes_agree: True\n"
        "provenance: exact closed form\n"))


EXACT_COMMANDS = [
    ["check", "--ring", "4:2,9:1", "--json"],
    ["check", "--srg", "16,6,2,2"],
    ["classify", "--srg", "25,12,5,6"],
    ["enumerate", "--n-max", "100", "--csv"],
    ["rings-search", "--s", "3", "--qmax", "8"],
    ["check", "--family", "crown", "--t", "5"],
    ["spectrum", "--family", "paley", "--q", "13"],
]

# runs each stage of argvs through the CLI in-process and prints, as JSON,
# the package modules (and numpy) that have executed, and which of the
# output modules csv and json are loaded, after a bare import of the CLI and
# after each stage, with each stage's exit codes and output sizes.
# A lazily loaded module waits in sys.modules as a ModuleType subclass until
# its body runs, so only a plain ModuleType counts as executed.
_FRESH_INTERPRETER = """
import ast, contextlib, io, sys, types
import equigraph.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = equigraph.cli.main.main(args=argv, standalone_mode=False) or 0
        except SystemExit as exc:
            code = exc.code
    return [code, len(out.getvalue())]

def executed():
    names = [n.split(".", 1)[1] for n, m in sys.modules.items()
             if n.startswith("equigraph.") and type(m) is types.ModuleType]
    return sorted(names) + ["numpy"] * ("numpy" in sys.modules)

def formats():
    return [m for m in ("csv", "json") if m in sys.modules]

report = [{"runs": [], "executed": executed(), "formats": formats()}]
for stage in ast.literal_eval(sys.argv[1]):
    report.append({"runs": [run(argv) for argv in stage], "executed": executed(),
                   "formats": formats()})

import json  # only now, so that formats() sees what the CLI loaded
print(json.dumps(report))
"""


def _fresh_run(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports this package's source, run to its end
    with ``env`` added to the environment."""
    src = str(Path(equigraph.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _fresh_python(*args: str) -> str:
    """The stdout of a new interpreter that imports this package's source;
    it must exit 0."""
    result = _fresh_run(*args)
    result.check_returncode()
    return result.stdout


def _run_fresh(stages: list[list[list[str]]]) -> list[dict]:
    return json.loads(_fresh_python("-c", _FRESH_INTERPRETER, json.dumps(stages)))


_LAYERS = "import equigraph.graphs as G, equigraph.rings as R, equigraph.srg as S"


@pytest.mark.parametrize("imports", [
    f"{_LAYERS}\nimport equigraph.cli as cli",
    f"import equigraph.cli as cli\n{_LAYERS}",
], ids=["layers-first", "cli-first"])
def test_a_lazy_layer_is_the_one_module_of_its_name(imports):
    # imported before or after the CLI, each layer is one module object,
    # entered in sys.modules and bound on the package, so there is one Graph
    # class and the benchmark's tracer finds every layer by name; cli and
    # graphs share the one srg module
    assert _fresh_python("-c", imports + """
import sys, equigraph
print(cli.G is G is sys.modules["equigraph.graphs"] is equigraph.graphs,
      cli.R is R is sys.modules["equigraph.rings"] is equigraph.rings,
      cli.S is G.S is S is sys.modules["equigraph.srg"] is equigraph.srg,
      cli.G.Graph is G.Graph, cli.R.RingProfile is R.RingProfile,
      cli.S.SrgParams is G.S.SrgParams is S.SrgParams)
""") == "True True True True True True\n"


def test_exact_commands_never_load_numpy(tmp_path):
    path = tmp_path / "petersen.g"
    path.write_text(write_graph(petersen()))
    _, exact, graph_file = _run_fresh([EXACT_COMMANDS, [["check", "--file", str(path)]]])
    assert [code for code, _ in exact["runs"]] == [1, 0, 0, 0, 0, 0, 0]
    assert all(size for _, size in exact["runs"])
    assert "numpy" not in exact["executed"]
    assert {"cli", "srg", "exact", "spectra", "rings", "jacobi",
            "graphs"} <= set(graph_file["executed"])
    # Petersen is not equienergetic with its complement: answered, exit 1
    assert graph_file["runs"][0][0] == 1 and graph_file["runs"][0][1]
    assert "numpy" in graph_file["executed"]


def test_each_command_executes_only_the_layers_it_uses(tmp_path):
    path = tmp_path / "petersen.g"
    path.write_text(write_graph(petersen()))
    # a graph file and a family without an srg closed form come before any
    # srg command, so they show that neither runs the srg layer
    stages = [
        [["check", "--ring", "4:2,9:1", "--json"]],
        [["check", "--file", str(path)], ["check", "--family", "crown", "--t", "5"]],
        [["check", "--srg", "16,6,2,2"], ["classify", "--srg", "25,12,5,6"]],
        [["enumerate", "--n-max", "100", "--csv"]],
        [["verify", "table3"]],
    ]
    report = _run_fresh(stages)
    assert [[code for code, _ in stage["runs"]] for stage in report[1:]] == [[1], [1, 0],
                                                                             [0, 0], [0], [0]]
    assert report[0]["executed"] == ["cli", "exact", "spectra"]
    added = [sorted(set(after["executed"]) - set(before["executed"]))
             for before, after in zip(report, report[1:])]
    assert added == [["fields", "rings"], ["graphs", "jacobi", "numpy"], ["srg"], [],
                     ["data", "verify"]]


def test_csv_and_json_load_only_for_their_output():
    report = _run_fresh([
        [["check", "--ring", "4:2,9:1"], ["classify", "--srg", "25,12,5,6"],
         ["spectrum", "--family", "crown", "--t", "5"], ["verify", "table3"]],
        [["check", "--ring", "4:2,9:1", "--json"]],
        [["rings-search", "--s", "3", "--qmax", "8", "--csv"]],
    ])
    assert [[code for code, _ in stage["runs"]] for stage in report[1:]] == [[1, 0, 0, 0],
                                                                             [1], [0]]
    assert [stage["formats"] for stage in report] == [[], [], ["json"], ["csv", "json"]]


_RUN_CLI = "from equigraph.cli import main; main(prog_name='equigraph')"

# the texts that read the srg cap or list every command, as a new process
# prints them: building a command at its first lookup leaves each the same
_LOOKUP_TEXTS = {
    "enumerate-help": (["enumerate", "--help"], 0, """\
Usage: equigraph enumerate [OPTIONS]

  Stream every equienergetic parameter tuple with n <= N as CSV/JSON.

Options:
  --n-max INTEGER RANGE  largest vertex count  [x<=10000; required]
  --jobs INTEGER RANGE   worker processes  [default: 1; x>=1]
  --json                 emit JSON
  --csv                  emit CSV
  --help                 Show this message and exit.
""", ""),
    "help": (["--help"], 0, """\
Usage: equigraph [OPTIONS] COMMAND [ARGS]...

  Exact equienergy analysis of regular graphs and their complements.

Options:
  --help  Show this message and exit.

Commands:
  check         Equienergy verdict for a graph against its complement.
  classify      Classify an srg tuple under the complementary-equienergy...
  enumerate     Stream every equienergetic parameter tuple with n <= N as...
  rings-search  Search products of s fields that are equienergetic with...
  spectrum      Spectrum, energy and discrepancy breakdown of a graph...
  verify        Run one verification suite; nonzero exit when any claim...
""", ""),
    "above-the-cap": (["enumerate", "--n-max", "10001"], 2, "", """\
Usage: equigraph enumerate [OPTIONS]
Try 'equigraph enumerate --help' for help.

Error: Invalid value for '--n-max': 10001 is not in the range x<=10000.
"""),
    "misspelt": (["enumrate"], 2, "", """\
Usage: equigraph [OPTIONS] COMMAND [ARGS]...
Try 'equigraph --help' for help.

Error: No such command 'enumrate'. Did you mean 'enumerate'?
"""),
}


@pytest.mark.parametrize("argv, code, stdout, stderr", _LOOKUP_TEXTS.values(),
                         ids=_LOOKUP_TEXTS.keys())
def test_lazily_built_commands_print_the_same_texts(argv, code, stdout, stderr):
    result = _fresh_run("-c", _RUN_CLI, *argv, COLUMNS="80")
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)
