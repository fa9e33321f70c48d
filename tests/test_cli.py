import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from equigraph.cli import main
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
    assert spec.n == 4 and spec.principal == 0


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
    real = S.theorem_tuples
    extra = S.SrgParams(4, 2, 0, 2)  # OA(2, 2): classify rejects it
    monkeypatch.setattr(S, "theorem_tuples", lambda n: real(n) + ([extra] if n == 4 else []))
    monkeypatch.setitem(V.SUITES, "srg-families", lambda: V.verify_srg_enumeration(30, 30))
    result = runner.invoke(main, ["verify", "srg-families"])
    assert result.exit_code == 1
    first = result.output.splitlines()[0]
    assert first.startswith("[FAIL] every enumerated tuple (n <= 30)") and "srg(4,2,0,2)" in first
