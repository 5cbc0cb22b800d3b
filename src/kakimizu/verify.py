"""Claim-level verification suites.

Each suite checks one statement of the theory over a concrete system or
complex at desk scale and returns a :class:`ClaimReport` whose failures carry
replayable witnesses (vertex pairs, cycles, or homology data).  The three
pair claims, d = cs + 1, d <= i + 1 and cs <= i, share one pass over the
vertex pairs, made once per system by whichever of them runs first.  Only
``simple_connectivity`` runs a bounded homotopy search; a search that stops
gets a third verdict, ``inconclusive``, which is never folded into pass or
fail.  Its sweep enumerates only chordless cycles, and never a chorded one:
a chord cuts a cycle into two shorter ones, and the cycle contracts when
both of them do.  A budgeted search cannot certify nontriviality; a mod-2
1-cocycle that pairs odd with a cycle does, and turns that cycle into a
failure before any search is spent on it.  Residues need no cycle at all:
in a flag complex the residue of a simplex is a cone, certified once per
simplex from the adjacency sets.  A disconnected complex is not simply
connected, and fails that claim.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .complexes import (ContractibilityReport, FlagComplex, _levels, _spanning_forest,
                        build_complex, contractibility_report, embedded_cycles,
                        homology_h1, mod2_cocycles)
from .homotopy import (_MAX_STEPS, _is_mod2_cocycle, _pairs_odd, _replays_to_point,
                       reduce_cycle_homotopy)
from .patterns import EMPTY_PATTERN
from .systems import SurfaceSystem, kakimizu_null_homotopy


@dataclass(frozen=True)
class ReductionBounds:
    """Budgets for ``simple_connectivity``, the one claim that sweeps
    cycles: enumerate the whole complex's chordless cycles up to
    ``max_cycle_len`` edges, let searches grow cycles to twice that cap and
    spend at most ``max_steps`` steps per cycle.

    A cap below 3 would enumerate no cycle and pass with no witness, so it is
    refused.  The length bound binds only the breadth-first phase of a
    search: its greedy descent never makes a cycle longer (a cut drops a
    vertex, a substitution keeps or drops the length), which is also why the
    descent keeps visited states of the current length only.
    ``max_steps = 0`` is a budget of no steps; a negative one is refused."""

    max_cycle_len: int = 8
    max_steps: int = _MAX_STEPS

    def __post_init__(self):
        if self.max_cycle_len < 3:
            raise ValueError("max_cycle_len must be at least 3")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")


@dataclass
class ClaimReport:
    claim: str
    statement: str
    instances: int = 0
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    elapsed: float = 0.0
    girth_witness: dict | None = None
    criterion: ContractibilityReport | None = None

    @property
    def verdict(self) -> str:
        if self.failures:
            return "fail"
        if self.inconclusive:
            return "inconclusive"
        return "pass"

    def as_dict(self, include_timings: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "statement": self.statement,
            "instances": self.instances,
            "failures": self.failures,
            "inconclusive": self.inconclusive,
            "verdict": self.verdict,
        }
        if self.girth_witness is not None:
            out["girth_witness"] = self.girth_witness
        if self.criterion is not None:
            out["criterion"] = self.criterion.as_dict()
        if include_timings:
            out["elapsed"] = self.elapsed
        return out


@dataclass
class VerificationReport:
    claims: list

    def __post_init__(self):
        self.claims = sorted(self.claims, key=lambda c: c.claim)

    @property
    def verdict(self) -> str:
        if any(c.verdict == "fail" for c in self.claims):
            return "fail"
        if any(c.verdict == "inconclusive" for c in self.claims):
            return "inconclusive"
        return "pass"

    def to_json(self, include_timings: bool = False) -> str:
        obj = {
            "claims": [c.as_dict(include_timings) for c in self.claims],
            "verdict": self.verdict,
        }
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"

    def to_table(self) -> str:
        # timings are kept out of the table so identical runs print
        # identical bytes
        headers = ("claim", "instances", "failures", "inconclusive", "verdict")
        rows = [(c.claim, str(c.instances), str(len(c.failures)),
                 str(len(c.inconclusive)), c.verdict) for c in self.claims]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        fmt = "  ".join("{:<%d}" % w for w in widths)
        lines = [fmt.format(*headers)]
        lines += [fmt.format(*r) for r in rows]
        lines.append(f"overall: {self.verdict}")
        return "\n".join(lines) + "\n"


def _timed(report: ClaimReport, started: float) -> ClaimReport:
    report.elapsed = time.perf_counter() - started
    return report


def _pair_failures(system: SurfaceSystem) -> tuple:
    """The failures of the three pair claims, found in one pass over the
    vertex pairs, made once per system and kept on it.

    One BFS per source, over the system's complex, with nothing kept past its
    row: no distance table is filled.  Spread and intersection are read off
    each pair's pattern, which computes them once per object and does not
    validate them, so an invalid pattern of a table adopted unchecked fails
    with its own numbers.  Returns the failures of d = cs + 1, of d <= i + 1
    and of cs <= i, each in pair order."""
    if system._pair_failures is None:
        adj = build_complex(system)._adj
        ids = system.vertex_ids()
        stored = system._patterns
        distance, bound, spread = [], [], []
        for i, u in enumerate(ids):
            dist = _levels(adj, u)
            for v in ids[i + 1:]:
                d = dist.get(v)
                cs, inum = stored.get((u, v), EMPTY_PATTERN)._numbers
                if d != cs + 1:
                    distance.append({"u": u, "v": v, "distance": d, "spread": cs})
                if d is None or d > inum + 1:
                    bound.append({"u": u, "v": v, "distance": d, "intersection": inum})
                if cs > inum:
                    spread.append({"u": u, "v": v, "spread": cs, "intersection": inum})
        system._pair_failures = (distance, bound, spread)
    return system._pair_failures


def _pair_claim(system: SurfaceSystem, claim: str, statement: str, which: int) -> ClaimReport:
    """One pair claim's report: its own copy of its failures from
    :func:`_pair_failures`, row by row, and one instance per pair."""
    started = time.perf_counter()
    report = ClaimReport(claim, statement)
    report.failures = [dict(f) for f in _pair_failures(system)[which]]
    n = len(system.vertex_ids())
    report.instances = n * (n - 1) // 2
    return _timed(report, started)


def verify_distance_theorem(system: SurfaceSystem) -> ClaimReport:
    """Distance in the disjointness complex equals covering spread plus one,
    for every pair of distinct vertices; an unreachable pair fails.  Its
    failures come from the pass over the pairs that it shares with the other
    two pair claims (:func:`_pair_failures`)."""
    return _pair_claim(system, "distance_equals_spread_plus_one",
                       "d(u, v) = cs(u, v) + 1 for every pair of distinct vertices", 0)


def verify_st_bound(system: SurfaceSystem) -> ClaimReport:
    """Distance is bounded above by intersection number plus one; an
    unreachable pair fails.  Its failures come from the shared pass over the
    pairs (:func:`_pair_failures`)."""
    return _pair_claim(system, "distance_le_intersection_plus_one",
                       "d(u, v) <= i(u, v) + 1 for every pair of distinct vertices", 1)


def verify_cs_le_i(system: SurfaceSystem) -> ClaimReport:
    """Covering spread never exceeds intersection number.  Its failures come
    from the shared pass over the pairs (:func:`_pair_failures`), which reads
    both numbers once per pattern object."""
    return _pair_claim(system, "spread_le_intersection",
                       "cs(u, v) <= i(u, v) for every pair of distinct vertices", 2)


def verify_link_girth(X: FlagComplex) -> ClaimReport:
    """Every vertex link has no induced 4- or 5-cycle, i.e. girth >= 6.
    Nothing else can fail: 3-cycles bound by flagness, and a diagonalled 4-
    or 5-cycle reduces by corner cuts unless the link has an induced 4-cycle
    (J-S section 1), so no search runs.  The least induced link cycle
    length, up to 7, is recorded as the girth witness."""
    started = time.perf_counter()
    report = ClaimReport("link_girth_6",
                         "vertex links have no nontrivial cycles shorter than 6")
    girth_witness = None
    for v in X.vertices:
        if not X.neighbors(v):
            continue
        report.instances += 1
        for length in (4, 5):
            for cycle in X.link_cycles(v, length):
                report.failures.append({"link_of": v, "cycle": list(cycle),
                                        "problem": "diagonal-free short cycle"})
        if girth_witness is None:
            for length in range(4, 8):
                found = X.link_cycles(v, length)
                if found:
                    girth_witness = {"link_of": v, "cycle": list(found[0]), "length": length}
                    break
    if girth_witness is not None:
        report.statement += f" (least induced link cycle found: {girth_witness['length']})"
        report.girth_witness = girth_witness
    return _timed(report, started)


def verify_residues_sc(X: FlagComplex) -> ClaimReport:
    """Every simplex residue is a cone with apex s[0], hence contractible.
    In a flag complex the residue of s is the cone s * lk(s) (J-S section
    1), so the certificate, read off the adjacency sets, is that s[0] is
    adjacent to every other vertex of s and of its common neighbours.  It
    cannot fail on a complex that ``FlagComplex`` built; the claim states
    the theorem at one instance per simplex, with no cycle and no budget."""
    started = time.perf_counter()
    report = ClaimReport("residues_simply_connected",
                         "every simplex residue is a cone with apex s[0], hence contractible")
    adj = X._adjset
    for s in X.simplices():
        report.instances += 1
        missing = _residue_vertices(adj, s) - adj[s[0]] - {s[0]}
        if missing:
            report.failures.append({"simplex": list(s), "vertex": min(missing),
                                    "problem": "residue is not a cone"})
    return _timed(report, started)


def _residue_vertices(adj, s) -> set:
    """The vertices of the residue of ``s``: s and its common neighbours."""
    return set(s).union(frozenset.intersection(*(adj[v] for v in s)))


def verify_simple_connectivity(system: SurfaceSystem,
                               bounds: ReductionBounds = ReductionBounds()) -> ClaimReport:
    """The complex must be connected, H1 must vanish, and every embedded
    cycle up to the cap must contract.

    A complex is connected when its spanning forest has V - 1 edges; if it
    has fewer, the failure names the least vertex and the least vertex it
    cannot reach.

    A chord cuts a cycle into two shorter cycles, and the cycle contracts
    when both do, so by induction on length every cycle up to the cap
    contracts once every chordless cycle up to the cap does.  So the sweep
    enumerates only the chordless cycles, triangles included, in the walk's
    order (``embedded_cycles(..., chordless=True)``); a chorded cycle is
    never enumerated, and is neither an instance nor an entry.  Each
    chordless cycle needs a null-homotopy witness that replays move-by-move.

    When H1 is nontrivial the failure lists a basis of H^1(X; Z/2) under
    ``"cocycles"``.  Each basis cocycle that checks (even on every triangle)
    is paired with every chordless cycle before any search: a cycle it
    crosses an odd number of times cannot contract, so it fails, naming the
    cocycle by its index, and is not searched.  Pairing is additive over a
    chord split, so a chorded cycle that pairs odd has an odd half, and
    splitting on ends at a listed chordless cycle.  A cocycle that does not
    check is reported and dropped.  Chordless cycles that pair evenly with
    every cocycle (odd torsion, or trivial in homology) are reduced by the
    complexity-descent procedure when the system has a double curve sum, by
    generic bounded search otherwise.  Without ``strict_descent`` the
    descent may stop with no applicable move on a cycle that does contract,
    so a cycle it leaves unreduced is searched too before it counts as
    inconclusive."""
    started = time.perf_counter()
    report = ClaimReport("simple_connectivity",
                         "H1 = 0 and all short cycles contract with replayable witnesses")
    X = build_complex(system)
    h1 = homology_h1(X)
    report.instances += 1
    if len(_spanning_forest(X)) < len(X.vertices) - 1:
        root = X.vertices[0]
        reached = _levels(X._adj, root)
        report.failures.append({"problem": "complex not connected",
                                "vertices": [root, next(v for v in X.vertices
                                                        if v not in reached)]})
    cocycles = {}  # basis index -> edge set, for the cocycles that check
    if not h1.is_trivial():
        basis = mod2_cocycles(X)
        report.failures.append({"problem": "H1 nontrivial", "h1": str(h1),
                                "cocycles": [[list(e) for e in z] for z in basis]})
        for k, z in enumerate(map(frozenset, basis)):
            if _is_mod2_cocycle(X, z):
                cocycles[k] = z
            else:
                report.failures.append({"problem": "cocycle failed to check", "cocycle": k})
    for cycle in embedded_cycles(X, bounds.max_cycle_len, chordless=True):
        report.instances += 1
        if cocycles:
            k = next((k for k, z in cocycles.items() if _pairs_odd(z, cycle)), None)
            if k is not None:
                report.failures.append({"cycle": list(cycle),
                                        "problem": "nontrivial in H1(X; Z/2)", "cocycle": k})
                continue
        result = None
        if system.supports_dcs:
            result = kakimizu_null_homotopy(system, cycle, max_steps=bounds.max_steps)
        if result is None or not (result.reduced or system.strict_descent):
            result = reduce_cycle_homotopy(X, cycle, 2 * bounds.max_cycle_len, bounds.max_steps)
        if not result.reduced:
            report.inconclusive.append({"cycle": list(cycle), "reason": result.reason})
        elif not _replays_to_point(X, cycle, result):
            report.failures.append({"cycle": list(cycle), "problem": "witness failed to replay"})
    return _timed(report, started)


def verify_contractible_2d(X: FlagComplex) -> ClaimReport:
    """Record the outcome of the dimension-2 contractibility criterion.  An
    unmet criterion is inconclusive, never a failure: nothing here can refute
    contractibility."""
    started = time.perf_counter()
    report = ClaimReport("contractible_if_2d",
                         "dimension <= 2 and locally 6-large imply contractible")
    rep = contractibility_report(X)
    report.instances = 1
    if rep.conclusion != "contractible":
        report.inconclusive.append(rep.as_dict())
    else:
        report.statement += " (criterion met: contractible)"
    report.criterion = rep
    return _timed(report, started)


SUITES = {
    "distance": ("distance", "st_bound", "cs_le_i"),
    "girth": ("link_girth",),
    "sc": ("residues_sc", "simple_connectivity"),
    "contractible": ("contractible",),
}
SUITES["all"] = SUITES["distance"] + SUITES["girth"] + SUITES["sc"] + SUITES["contractible"]


def run_suite(system: SurfaceSystem, suite: str = "all",
              bounds: ReductionBounds = ReductionBounds()) -> VerificationReport:
    """Run one named suite over a system.  Every check shares the system's
    one disjointness complex and the facts cached on it, and the three pair
    claims share one pass over the pairs; no distance table is filled and
    nothing is kept per pair."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    X = build_complex(system)
    # built per call, so a verify_* function rebound on this module takes effect
    checks = {
        "distance": lambda: verify_distance_theorem(system),
        "st_bound": lambda: verify_st_bound(system),
        "cs_le_i": lambda: verify_cs_le_i(system),
        "link_girth": lambda: verify_link_girth(X),
        "residues_sc": lambda: verify_residues_sc(X),
        "simple_connectivity": lambda: verify_simple_connectivity(system, bounds),
        "contractible": lambda: verify_contractible_2d(X),
    }
    return VerificationReport([checks[name]() for name in SUITES[suite]])
