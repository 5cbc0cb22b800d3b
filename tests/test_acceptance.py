"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its time budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they go by."""
import random
import time
from contextlib import contextmanager

import pytest

import kakimizu as kk
from kakimizu.cli import main

from conftest import random_graph_systems, random_pattern, random_system


@contextmanager
def criterion(number, label, budget_s):
    started = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - started
        verdict = "FAIL" if failed else ("PASS" if elapsed < budget_s else "FAIL (over budget)")
        print(f"criterion {number:2d} {verdict}: {label} [{elapsed:.2f}s < {budget_s}s]")
        if not failed:
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def graph_systems():
    return random_graph_systems(50, 30, seed=0)


@pytest.fixture(scope="module")
def instances(line10, lattice7, graph_systems):
    return [line10, lattice7] + graph_systems


@pytest.fixture(scope="module")
def lattice7_complex(lattice7):
    return kk.build_complex(lattice7, max_dim=3)


def test_criterion_01_spread_oracle_equivalence():
    with criterion(1, "covering spread = l_t - l_b = |support| on all small windows", 1.0):
        rng = random.Random(1)
        checked = 0
        for a in range(-6, 2):
            for b in range(max(a, 0), 7):
                if a == 1 and b == 0:
                    continue
                for _ in range(4):
                    counts = tuple(rng.randint(1, 5) for _ in range(b - a + 1))
                    p = kk.OffsetPattern(a, counts)
                    top, bottom = kk.lt_lb(p)
                    assert kk.covering_spread(p) == top - bottom == len(counts)
                    checked += 1
        assert checked >= 200


def test_criterion_02_duality():
    with criterion(2, "dualize is an involution preserving spread and intersection", 1.0):
        rng = random.Random(0)
        for _ in range(1000):
            p = random_pattern(rng)
            d = kk.dualize(p)
            assert kk.covering_spread(d) == kk.covering_spread(p)
            assert kk.intersection_number(d) == kk.intersection_number(p)
            assert kk.dualize(d) == p


def test_criterion_03_spread_and_distance_bounds(instances):
    with criterion(3, "cs <= i and distance <= i + 1 on every pair of every instance", 5.0):
        for system in instances:
            X = kk.build_complex(system, max_dim=1)
            ids = system.vertex_ids()
            for u in ids:
                dist = X.distances_from(u)
                for v in ids:
                    if v <= u:
                        continue
                    inum = system.intersection(u, v)
                    assert system.spread(u, v) <= inum
                    assert dist[v] <= inum + 1


def test_criterion_04_distance_equals_spread_plus_one(instances):
    with criterion(4, "distance = cs + 1 on every pair of every instance", 5.0):
        for system in instances:
            report = kk.verify_distance_theorem(system)
            assert report.verdict == "pass", report.failures[:3]


def test_criterion_05_geodesics(line10, lattice7):
    with criterion(5, "constructed geodesics have length cs + 1 with disjoint steps", 5.0):
        for system in (line10, lattice7):
            X = kk.build_complex(system, max_dim=1)
            ids = system.vertex_ids()
            for u in ids:
                dist = X.distances_from(u)
                for v in ids:
                    if u == v:
                        continue
                    path = kk.geodesic(system, u, v)
                    assert path[0] == v and path[-1] == u
                    assert len(path) - 1 == system.spread(u, v) + 1 == dist[v]
                    for a, b in zip(path, path[1:]):
                        assert system.disjoint(a, b)


def test_criterion_06_link_girth(lattice7, lattice7_complex):
    with criterion(6, "vertex links: short cycles trivial, girth exactly 6 witnessed", 5.0):
        X = lattice7_complex
        report = kk.verify_link_girth(X)
        assert report.verdict == "pass"
        assert report.girth_witness["length"] == 6
        interior = 0
        for v in X.vertices:
            lk = X.link((v,))
            for cycle in kk.embedded_cycles(lk, 5, min_len=3):
                if len(cycle) == 3:
                    assert lk.is_simplex(cycle)
                else:
                    assert any(lk.has_edge(cycle[i], cycle[j])
                               for i in range(len(cycle))
                               for j in range(i + 2, len(cycle))
                               if (i, j) != (0, len(cycle) - 1)), cycle
            a, b = (int(t) for t in v.split("_"))
            if 1 <= a <= 5 and 1 <= b <= 5:
                interior += 1
                # interior link is one diagonal-free hexagon
                assert len(lk.vertices) == 6 and len(lk.edges) == 6
                assert all(len(lk.neighbors(w)) == 2 for w in lk.vertices)
                assert len(list(kk.induced_cycles(lk, 6))) == 1
        assert interior == 25


def test_criterion_07_simple_connectivity(line10, lattice7):
    with criterion(7, "H1 = 0 and all short lattice cycles get replayable witnesses", 30.0):
        for system in (line10, lattice7):
            assert kk.homology_h1(kk.build_complex(system, max_dim=3)).is_trivial()
        X1 = kk.build_complex(lattice7, max_dim=1)
        count = 0
        for cycle in kk.embedded_cycles(X1, 8):
            result = kk.kakimizu_null_homotopy(lattice7, cycle)
            assert result.reduced, cycle
            # replay move-by-move, confirming the excursion bound
            c = cycle
            for mv in result.moves:
                c = kk.apply_move(X1, c, mv)
                assert len(c) <= 16
            assert c == result.final and len(c) <= 1
            count += 1
        assert count > 1000


def test_criterion_08_contractibility_criterion(lattice7_complex, hexagon_complex):
    with criterion(8, "lattice window contractible; hexagon control yields no conclusion", 5.0):
        rep = kk.contractibility_report(lattice7_complex)
        assert rep.dim == 2
        assert rep.locally_6_large
        assert rep.conclusion == "contractible"
        neg = kk.contractibility_report(hexagon_complex)
        assert str(neg.h1) == "Z"
        assert neg.conclusion == "no conclusion from this criterion"


def closed_walks(X, max_len):
    """Every closed walk of length 3..max_len, up to rotation and reflection."""
    seen = set()
    for s in X.vertices:
        stack = [(s,)]
        while stack:
            path = stack.pop()
            if 3 <= len(path) <= max_len and X.has_edge(path[-1], s):
                key = kk.canonical_cycle(path)
                if key not in seen:
                    seen.add(key)
                    yield path
            if len(path) < max_len:
                for w in X.neighbors(path[-1]):
                    stack.append(path + (w,))


def test_criterion_09_descent_reduction_and_criterion_agreement(line10, instances):
    with criterion(9, "line walks reduce by descent; diagonal criterion cross-checked", 30.0):
        X = kk.build_complex(line10, max_dim=1)
        walks = 0
        for walk in closed_walks(X, 8):
            result = kk.kakimizu_null_homotopy(line10, walk)
            assert result.reduced, walk
            assert len(kk.replay(X, walk, result.moves)) <= 1
            walks += 1
        assert walks > 100
        # diagonal criterion vs homotopy search.  A diagonal splits a square
        # into two flag triangles, so diagonalled 4-cycles reduce in every
        # complex.  For 5-cycles the diagonal only splits off a 4-cycle that
        # may itself be essential, so the pointwise check is sound only on
        # 6-large complexes; there it is two-sided.
        for system in instances:
            X1 = kk.build_complex(system, max_dim=1)
            diag_free4 = set(kk.induced_cycles(X1, 4))
            for cycle in kk.embedded_cycles(X1, 4, min_len=4):
                if cycle in diag_free4:
                    continue
                result = kk.reduce_cycle_homotopy(X1, cycle, max_len=8,
                                                  max_steps=10_000)
                assert result.reduced, (system, cycle)
        for system in instances[:2]:
            X1 = kk.build_complex(system, max_dim=1)
            for length in (4, 5):
                # 6-large models: no diagonal-free short cycle exists, and
                # every (necessarily diagonalled) short cycle reduces
                assert not list(kk.induced_cycles(X1, length))
                for cycle in kk.embedded_cycles(X1, length, min_len=length):
                    result = kk.reduce_cycle_homotopy(X1, cycle, max_len=2 * length,
                                                      max_steps=10_000)
                    assert result.reduced, (system, cycle)


def test_criterion_10_round_trip_and_determinism(tmp_path, capsys):
    with criterion(10, "save/load identity on 100 random systems; CLI byte-identical", 5.0):
        rng = random.Random(0)
        for _ in range(100):
            system = random_system(rng)
            text = kk.save_system(system)
            again = kk.load_system(text)
            assert again == system
            assert kk.save_system(again) == text
        out = tmp_path / "lat.json"
        out2 = tmp_path / "lat2.json"
        assert main(["gen", "lattice", "--width", "4", "--height", "4",
                     "-o", str(out)]) == 0
        assert main(["gen", "lattice", "--width", "4", "--height", "4",
                     "-o", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

        def invoke(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out
        runs = [invoke("verify", str(out), "--suite", "all") for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == 0
        spreads = [invoke("spread", str(out), "-u", "0_0", "-v", "3_3") for _ in range(2)]
        assert spreads[0] == spreads[1]
