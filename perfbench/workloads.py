"""Workload populations, seeded item streams and the correctness gate.

Every workload drives one CLI command.  The populations and their
expected outputs live under ``refs/`` (built once by ``make_refs.py``);
the seed only chooses which population members are sent, in which
order, and (for graph files) under which vertex labelling.  The program
sees nothing but the argv and the graph files written here.

Draws are quasi-random: item ``i`` takes the member at quantile
``frac(u + i * g)`` of the population sorted by cost class, with ``g``
the golden-ratio conjugate and ``u`` drawn from the seed.  Any prefix of
the stream therefore carries close to the population's mix of cheap and
expensive members, so a time-bounded run measures the same mix whatever
the seed; plain random draws made the throughput depend on how many
expensive members a seed happened to pick.  ``numeric_graphs``, whose
costs span three orders of magnitude, sends its whole population in
passes instead, each pass a golden-ratio shuffle, so that no member
repeats before every other member has been sent.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

REFS = Path(__file__).resolve().parent / "refs"
ENUM_REF = REFS / "enumerate_2500.csv"
ENUM_MD5 = "a59dbe761a9cb4ae487ec3c02c0dae45"
RINGS_REF = REFS / "rings.txt"
GRAPHS_REF = REFS / "graphs.jsonl"

GOLDEN = (5 ** 0.5 - 1) / 2
ENUM_N_MIN, ENUM_N_MAX = 2000, 2500
REFUSAL_PREFIX = "uncertifiable eigenvalue interval"


class WrongAnswer(Exception):
    """The program's output disagrees with the committed reference."""


class BadReference(Exception):
    """A committed reference file is corrupt or inconsistent."""


@dataclass(frozen=True)
class Item:
    """One CLI invocation: ``key`` names the population member, ``size``
    is what it adds to ``items_per_s`` and ``graph_text`` is the file
    content a ``--file`` item needs written before it runs."""

    index: int
    key: str
    argv: tuple[str, ...]
    size: int = 1
    graph_text: Optional[str] = None


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    error: str = ""


# verdict classes returned by the gates
ANSWERED, REFUSED, FAILED = "answered", "refused", "failed"


def unanswered(out: Outcome) -> Optional[str]:
    """REFUSED for ``check``'s documented refusal, FAILED for any other exit
    that is not a verdict, None for exit 0 or 1."""
    if out.code == 2 and out.error.startswith(REFUSAL_PREFIX):
        return REFUSED
    return None if out.code in (0, 1) else FAILED


def golden_order(size: int, u: float) -> list[int]:
    """A permutation of ``range(size)`` whose every prefix is spread evenly
    over the range."""
    return sorted(range(size), key=lambda r: (u + r * GOLDEN) % 1.0)


def quasi_random(seed: int, size: int) -> Iterator[int]:
    """Endless stream of indices into a population of ``size`` members."""
    u = random.Random(seed).random()
    i = 0
    while True:
        yield int(size * ((u + i * GOLDEN) % 1.0))
        i += 1


# -- srg_enumerate ---------------------------------------------------------------------


class SrgEnumerate:
    name = "srg_enumerate"
    command = "enumerate"
    # most of a call is numpy's vectorized scan, which the interpreter-bound
    # host probe does not track: normalizing doubled the spread (5% to 10%)
    host_normalized = False
    # the layers its why names, for layer.named.share
    layers = ("srg", "exact")

    def load(self, path: Path = ENUM_REF) -> None:
        raw = path.read_bytes()
        if hashlib.md5(raw).hexdigest() != ENUM_MD5:
            raise BadReference(f"{path.name}: md5 differs from {ENUM_MD5}")
        text = raw.decode("utf-8")
        # csv rows end in \r\n and click.echo's newline follows the last \r
        lines = text.removesuffix("\r\n").split("\r\n")
        self.header = lines[0]
        self.rows = lines[1:]
        self.row_n = [int(r.split(",", 1)[0]) for r in self.rows]

    def expected(self, n_max: int) -> str:
        rows = [r for r, n in zip(self.rows, self.row_n) if n <= n_max]
        return "\r\n".join([self.header] + rows) + "\r\n"

    def warmup(self) -> list[Item]:
        return [Item(-1, "60", ("enumerate", "--n-max", "60", "--csv", "--jobs", "1"), size=60)]

    def items(self, seed: int) -> Iterator[Item]:
        span = ENUM_N_MAX - ENUM_N_MIN + 1
        for i, q in enumerate(quasi_random(seed, span)):
            n_max = ENUM_N_MIN + q
            yield Item(i, str(n_max),
                       ("enumerate", "--n-max", str(n_max), "--csv", "--jobs", "1"),
                       size=n_max)

    def gate(self, item: Item, out: Outcome) -> str:
        if out.code != 0:
            return FAILED
        if out.stdout != self.expected(int(item.key)):
            raise WrongAnswer(f"enumerate --n-max {item.key}: CSV differs from the reference")
        return ANSWERED


# -- ring_queries ------------------------------------------------------------------------


class RingQueries:
    name = "ring_queries"
    command = "check"
    host_normalized = True
    layers = ("spectra", "rings", "exact")

    def load(self, path: Path = RINGS_REF) -> None:
        self.refs: dict[str, dict] = {}
        for line_no, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
            parts = line.split()
            if len(parts) != 7:
                raise BadReference(f"{path.name}:{line_no}: expected 7 fields")
            profile, n, degree, equal, delta, e, ec = parts
            self.refs[profile] = {"n": int(n), "degree": int(degree), "equal": equal == "1",
                                  "delta": delta, "energy": e, "energy_complement": ec}
        # cost grows with the number of local factors, then with |R|
        self.order = sorted(self.refs, key=lambda p: (p.count(",") + 1, self.refs[p]["n"], p))

    def warmup(self) -> list[Item]:
        picks = self.order[:: len(self.order) // 8]
        return [Item(-1, p, ("check", "--ring", p, "--json")) for p in picks]

    def items(self, seed: int) -> Iterator[Item]:
        for i, q in enumerate(quasi_random(seed, len(self.order))):
            profile = self.order[q]
            yield Item(i, profile, ("check", "--ring", profile, "--json"))

    def gate(self, item: Item, out: Outcome) -> str:
        verdict = unanswered(out)
        if verdict:
            return verdict
        ref = self.refs[item.key]
        try:
            got = json.loads(out.stdout)
        except ValueError:
            raise WrongAnswer(f"ring {item.key}: stdout is not JSON")
        expected = {"command": "check", "source": f"ring {item.key}", "n": ref["n"],
                    "degree": ref["degree"], "equal": ref["equal"], "delta": ref["delta"],
                    "energy": ref["energy"], "energy_complement": ref["energy_complement"],
                    "routes_agree": True, "provenance": "exact closed form"}
        if got != expected or (out.code == 0) != ref["equal"]:
            raise WrongAnswer(f"ring {item.key}: got exit {out.code} {got}, expected {expected}")
        return ANSWERED


# -- numeric_graphs ----------------------------------------------------------------------


def encode_adjacency(n: int, edges) -> str:
    """Upper-triangle adjacency bits, row-major, as hex."""
    bits = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        bits |= 1 << _pair_index(n, u, v)
    width = n * (n - 1) // 2
    return format(bits, f"0{(width + 3) // 4}x") if width else ""


def decode_adjacency(n: int, text: str) -> list[tuple[int, int]]:
    bits = int(text, 16) if text else 0
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if bits >> _pair_index(n, u, v) & 1]


def _pair_index(n: int, u: int, v: int) -> int:
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = set(edges)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def graph_file(n: int, edges, rng: random.Random) -> str:
    """Graph file text with vertices relabelled and edge lines shuffled by ``rng``."""
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"{perm[u]} {perm[v]}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join([f"{n} 0"] + lines) + "\n"


def parse_pretty(text: str) -> dict[str, str]:
    """``key: value`` lines of the CLI's pretty report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_approx(text: str) -> tuple[float, float]:
    """``approx=V radius=R`` as printed for an interval energy."""
    fields = dict(part.split("=", 1) for part in text.split())
    return float(fields["approx"]), float(fields["radius"])


class NumericGraphs:
    name = "numeric_graphs"
    command = "check"
    host_normalized = True
    layers = ("jacobi",)

    def load(self, path: Path = GRAPHS_REF) -> None:
        self.members = []
        for line_no, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
            row = json.loads(line)
            edges = decode_adjacency(row["n"], row["bits"])
            for side, side_edges in (("graph", edges), ("complement", None)):
                ref = row[side]
                if side_edges is None:
                    side_edges = complement_edges(row["n"], edges)
                if 2 * len(side_edges) != row["n"] * ref["k"]:
                    raise BadReference(f"{path.name}:{line_no}: {side} of {row['id']} "
                                       f"is not {ref['k']}-regular")
                key = row["id"] if side == "graph" else f"co-{row['id']}"
                self.members.append({"key": key, "n": row["n"], "edges": side_edges, **ref})
        # branch eigenvalues decide whether the program can certify at all,
        # then n^3 sets the eigensolver cost
        self.members.sort(key=lambda m: (m["branch"], m["n"], m["key"]))
        self.by_key = {m["key"]: m for m in self.members}

    def warmup(self) -> list[Item]:
        rng = random.Random("warmup")
        return [Item(-1, m["key"], ("check", "--file"),
                     graph_text=graph_file(m["n"], m["edges"], rng))
                for m in self.members[:: len(self.members) // 8] if m["n"] <= 32]

    def items(self, seed: int) -> Iterator[Item]:
        rng = random.Random(f"numeric_graphs/{seed}")
        i = 0
        while True:
            for q in golden_order(len(self.members), rng.random()):
                m = self.members[q]
                yield Item(i, m["key"], ("check", "--file"),
                           graph_text=graph_file(m["n"], m["edges"], rng))
                i += 1

    def gate(self, item: Item, out: Outcome) -> str:
        verdict = unanswered(out)
        if verdict:
            return verdict
        ref = self.by_key[item.key]
        got = parse_pretty(out.stdout)
        try:
            e, e_radius = parse_approx(got["energy"])
            ec, ec_radius = parse_approx(got["energy_complement"])
            checks = [
                got["n"] == str(ref["n"]),
                got["degree"] == str(ref["k"]),
                got["equal"] == str(ref["equal"]),
                (out.code == 0) == ref["equal"],
                got["delta"] == ref["delta"],
                got["routes_agree"] == "True",
                abs(e - ref["energy_f"]) <= e_radius + 1e-9 * ref["energy_f"],
                abs(ec - ref["energy_complement_f"])
                <= ec_radius + 1e-9 * ref["energy_complement_f"],
            ]
        except (KeyError, ValueError) as exc:
            raise WrongAnswer(f"graph {item.key}: unreadable report ({exc!r})")
        if not all(checks):
            raise WrongAnswer(f"graph {item.key}: got exit {out.code} {got}, reference {ref}")
        return ANSWERED


WORKLOADS = {w.name: w for w in (SrgEnumerate, RingQueries, NumericGraphs)}
