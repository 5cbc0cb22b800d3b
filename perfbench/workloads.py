"""The benchmark's workloads: how each makes its inputs from the seed, which
operations it times, and what each operation must answer.

Expected verdicts come from outside the program.  A path and a triangulated
disc are contractible, so ``line-wide`` and both lattice workloads must pass
with H1 = 0.  For ``graph-fuzz`` the first Betti number of each clique
complex is computed with networkx (cliques) and sympy (rank), and
``simple_connectivity`` must fail with H1 = Z^b1 exactly when b1 > 0.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PY = sys.executable
OP_LIMIT_S = 30  # wall-clock limit of one operation; over it, the operation is killed
LIMIT = f" Each operation is killed after {OP_LIMIT_S} s."


def cli(*args) -> list:
    return [PY, "-m", "kakimizu.cli", *map(str, args)]


def child(*args) -> list:
    return [PY, str(HERE / "child.py"), *map(str, args)]


def h1_text(b1: int) -> str:
    return "0" if b1 == 0 else "Z" if b1 == 1 else f"Z^{b1}"


@dataclass(frozen=True)
class Expect:
    """What an operation must answer.  ``None`` fields are only checked for
    consistency (exit code against verdict)."""

    verdict: str | None
    exit_code: int | None
    h1: str  # H1 the simple_connectivity claim must report


@dataclass
class Op:
    label: str
    argv: list           # untraced command
    traced_args: list    # child.py arguments after ``--trace PREFIX``
    report: Path         # JSON report the operation writes
    expect: Expect = None


@dataclass
class Inputs:
    ops: list
    files: list          # input files, for the byte count
    counts: dict         # V, E, triangles from the independent source


PASS = Expect("pass", 0, "0")


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _lattice_counts(w, h):
    return {"vertices": w * h,
            "edges": (w - 1) * h + w * (h - 1) + (w - 1) * (h - 1),
            "triangles": 2 * (w - 1) * (h - 1)}


class LatticeFile:
    name = "lattice-file"
    why = ("verify --suite all on a 16x16 lattice file: a contractible disc, verdict pass; "
           "H1 by dense SNF leads, generic cycle search next." + LIMIT)

    def __init__(self, size=16):
        self.size = size

    def _origin(self, seed):
        rng = _rng(self.name, seed)
        return rng.randint(10, 99 - self.size), rng.randint(10, 99 - self.size)

    def setup(self, work: Path, seed: int) -> list:
        a0, b0 = self._origin(seed)
        return [cli("gen", "lattice", "--width", self.size, "--height", self.size,
                    "--a0", a0, "--b0", b0, "-o", work / "lat.json")]

    def inputs(self, work: Path, seed: int) -> Inputs:
        src, rep = work / "lat.json", work / "lat.report.json"
        args = ["verify", src, "--suite", "all", "--json", rep]
        op = Op("lat", cli(*args), ["cli", *args], rep, PASS)
        return Inputs([op], [src], _lattice_counts(self.size, self.size))


class LatticeDescent:
    name = "lattice-descent"
    why = ("run_suite on a 12x12 lattice model with its double curve sum: the only path "
           "into the complexity-descent reduction and replay." + LIMIT)

    def __init__(self, size=12):
        self.size = size

    def _origin(self, seed):
        rng = _rng(self.name, seed)
        return rng.randint(10, 99 - self.size), rng.randint(10, 99 - self.size)

    def setup(self, work: Path, seed: int) -> list:
        return [child("model", self.size, self.size, *self._origin(seed))]

    def inputs(self, work: Path, seed: int) -> Inputs:
        rep = work / "descent.report.json"
        args = ["descent", self.size, self.size, *self._origin(seed), rep]
        op = Op("descent", child(*args), args, rep, PASS)
        return Inputs([op], [], _lattice_counts(self.size, self.size))


class GraphFuzz:
    name = "graph-fuzz"
    why = ("verify with small budgets on 12 random 16-vertex graph files: verdict fail, "
           "a heavy per-file tail spent in budget-stopped cycle searches." + LIMIT)

    def __init__(self, vertices=16, files=12, edge_prob=0.15):
        self.vertices = vertices
        self.gen_seeds = list(range(files))
        self.edge_prob = edge_prob

    def setup(self, work: Path, seed: int) -> list:
        # the seed relabels vertices; the graphs themselves stay fixed, so
        # the work per run does not depend on the seed
        perm_seed = _rng(self.name, seed).randrange(1, 2**31) if seed else 0
        return [child("gen-graphs", self.vertices, self.edge_prob, perm_seed, work,
                      *self.gen_seeds)]

    def inputs(self, work: Path, seed: int) -> Inputs:
        files = [work / f"g{k}.json" for k in self.gen_seeds]
        oracle = subprocess.run(child("oracle", *files), capture_output=True, text=True,
                                check=True, timeout=120).stdout.splitlines()
        ops = []
        counts = {"vertices": 0, "edges": 0, "triangles": 0}
        for k, src, line in zip(self.gen_seeds, files, oracle, strict=True):
            rep = work / f"g{k}.report.json"
            args = ["verify", src, "--suite", "all", "--max-cycle-len", 6,
                    "--max-steps", 100, "--json", rep]
            v, e, t, b1 = json.loads(line)
            counts["vertices"] += v
            counts["edges"] += e
            counts["triangles"] += t
            expect = Expect("fail", 1, h1_text(b1)) if b1 else Expect(None, None, "0")
            ops.append(Op(f"g{k}", cli(*args), ["cli", *args], rep, expect))
        return Inputs(ops, files, counts)


class LineWide:
    name = "line-wide"
    why = ("verify --suite all on a 251-vertex line file (32 MB): a path, verdict pass; "
           "load and pattern lookups lead, no cycle or homology work." + LIMIT)

    def __init__(self, span=250):
        self.span = span

    def _window(self, seed):
        # three-digit ids throughout, so the file size does not depend on the seed
        lo = _rng(self.name, seed).randint(100, 999 - self.span)
        return lo, lo + self.span

    def setup(self, work: Path, seed: int) -> list:
        lo, hi = self._window(seed)
        return [cli("gen", "line", "--min", lo, "--max", hi, "-o", work / "line.json")]

    def inputs(self, work: Path, seed: int) -> Inputs:
        src, rep = work / "line.json", work / "line.report.json"
        args = ["verify", src, "--suite", "all", "--json", rep]
        op = Op("line", cli(*args), ["cli", *args], rep, PASS)
        n = self.span + 1
        return Inputs([op], [src], {"vertices": n, "edges": n - 1, "triangles": 0})


def clique_complex_b1(system: dict):
    """(V, E, triangles, b1) of the flag complex of a system file, from
    networkx cliques and a sympy rank: b1 = E - V + components - rank d2."""
    import networkx as nx
    import sympy

    ids = [v["id"] for v in system["vertices"]]
    meets = {(p["u"], p["v"]) for p in system["patterns"]}
    G = nx.Graph()
    G.add_nodes_from(ids)
    G.add_edges_from((u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                     if (u, v) not in meets and (v, u) not in meets)
    edges = sorted(tuple(sorted(e)) for e in G.edges())
    index = {e: i for i, e in enumerate(edges)}
    tris = [tuple(sorted(c)) for c in nx.enumerate_all_cliques(G) if len(c) == 3]
    rank = 0
    if tris:
        d2 = sympy.zeros(len(edges), len(tris))
        for j, (a, b, c) in enumerate(tris):
            d2[index[(b, c)], j] = 1
            d2[index[(a, c)], j] = -1
            d2[index[(a, b)], j] = 1
        rank = d2.rank()
    b1 = len(edges) - len(ids) + nx.number_connected_components(G) - rank
    return len(ids), len(edges), len(tris), b1


WORKLOADS = {w.name: w for w in (LatticeFile(), LatticeDescent(), GraphFuzz(), LineWide())}


def toy_workloads() -> dict:
    """The same workloads at sizes that run in well under a second."""
    return {w.name: w for w in (LatticeFile(4), LatticeDescent(4),
                                GraphFuzz(vertices=8, files=3, edge_prob=0.3), LineWide(20))}
