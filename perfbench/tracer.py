"""Span tracer for the benchmark's traced runs.

The tracer lives in the benchmark, not in the program: :func:`install`
replaces the public functions of each ``kakimizu`` layer with timing
wrappers, at every module that binds them (``from .complexes import
build_complex`` makes a second binding in ``verify``, ``cli`` and
``systems``), and replaces methods on their class.

Three kinds of wrapper:

* ``span``: a full record (name, start, end, parent span, run id) kept in
  memory and written out when the process ends;
* ``leaf``: a per-pair or per-move call made hundreds of thousands of times
  per operation; it is timed and counted, and its time is charged to the
  enclosing frame, but it leaves no record of its own;
* ``iter``: a generator, timed over each ``next()`` rather than over the
  call, which returns before any work is done.

Every frame knows the time its children covered, so self time (duration
minus the part covered by child frames) is accumulated per name as calls
finish.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

perf = time.perf_counter

CLAIMS = {
    "verify_distance_theorem": "distance",
    "verify_st_bound": "st_bound",
    "verify_cs_le_i": "cs_le_i",
    "verify_link_girth": "link_girth",
    "verify_residues_sc": "residues_sc",
    "verify_simple_connectivity": "simple_connectivity",
    "verify_contractible_2d": "contractible",
}

LAYERS = ("cli", "systems", "patterns", "complexes", "homology", "homotopy", "verify")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []                 # [name, start, end, parent index]
        self.stats = {}                 # name -> [calls, inclusive s, self s]
        self.counters = defaultdict(float)
        self.claim = None               # claim whose function is running
        self.stack = [[0.0, -1]]        # frames: [child-covered s, span index]

    def root_s(self) -> float:
        """Time covered by top-level traced calls."""
        return self.stack[0][0]

    def dump(self, prefix: str, extra: dict) -> None:
        """Write ``PREFIX.summary.json`` (per-name stats and counters) and
        ``PREFIX.spans.json`` (every span record)."""
        summary = {
            "run_id": self.run_id,
            "spans": len(self.spans),
            "stats": self.stats,
            "counters": dict(self.counters),
            "root_s": self.root_s(),
            **extra,
        }
        with open(f"{prefix}.summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        with open(f"{prefix}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _wrap_leaf(tracer, name, fn):
    """The cheap wrapper: positional arguments, no record, no hooks."""
    stats = tracer.stats.setdefault(name, [0, 0.0, 0.0])
    stack = tracer.stack

    def traced(*args):
        parent = stack[-1]
        frame = [0.0, parent[1]]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args)
        finally:
            dur = perf() - start
            stack.pop()
            parent[0] += dur
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - frame[0]

    return traced


def _wrap_span(tracer, name, fn, before=None, after=None):
    stats = tracer.stats.setdefault(name, [0, 0.0, 0.0])
    stack = tracer.stack
    spans = tracer.spans

    def traced(*args, **kwargs):
        parent = stack[-1]
        span = [name, 0.0, 0.0, parent[1]]
        frame = [0.0, len(spans)]
        spans.append(span)
        token = before(tracer, args, kwargs) if before else None
        stack.append(frame)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            dur = end - start
            parent[0] += dur
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - frame[0]
            span[1] = start
            span[2] = end
        if after:
            after(tracer, args, kwargs, result, token)
        return result

    return traced


def _wrap_iter(tracer, name, fn, count_key=None):
    stats = tracer.stats.setdefault(name, [0, 0.0, 0.0])
    stack = tracer.stack
    counters = tracer.counters

    def traced(*args, **kwargs):
        stats[0] += 1
        it = fn(*args, **kwargs)
        key = count_key(tracer) if count_key else None

        def timed():
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf() - start
                    stack.pop()
                    parent[0] += dur
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                if key:
                    counters[key] += 1
                yield item

        return timed()

    return traced


# -- counters filled from arguments and results -------------------------------


def _make_claim_hooks(claim):
    def before(tracer, args, kwargs):
        prev = tracer.claim
        tracer.claim = claim
        return prev

    def after(tracer, args, kwargs, report, prev):
        tracer.claim = prev
        c = tracer.counters
        c[f"verify.{claim}_elapsed"] += report.elapsed
        c["verify.instances"] += report.instances
        c["verify.inconclusive"] += len(report.inconclusive)

    return before, after


def _snf_after(tracer, args, kwargs, result, token):
    rows = args[0]
    tracer.counters["homology.snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _reduce_after(tracer, args, kwargs, result, token):
    c = tracer.counters
    c["homotopy.reduce_steps"] += result.steps
    c["homotopy.reduced"] += result.reduced
    c["homotopy.budget_stops"] += result.reason == "step budget exhausted"


def _null_homotopy_after(tracer, args, kwargs, result, token):
    tracer.counters["systems.null_homotopy_steps"] += result.steps


def _replay_after(tracer, args, kwargs, result, token):
    moves = args[2] if len(args) > 2 else kwargs["moves"]
    tracer.counters["homotopy.moves_replayed"] += len(moves)


def _peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _load_before(tracer, args, kwargs):
    return _peak_mib()


def _load_after(tracer, args, kwargs, result, peak_before):
    tracer.counters["systems.load_mib"] += _peak_mib() - peak_before


def _build_after(tracer, args, kwargs, X, token):
    c = tracer.counters
    c["input.vertices"] = len(X.vertices)
    c["input.edges"] = len(X.edges)
    if X.max_dim >= 2:
        c["input.triangles"] = len(X.simplices(2))


def _cycles_key(tracer):
    # only the sweep of the whole complex counts, not link or residue sweeps
    if tracer.claim == "simple_connectivity":
        return "complexes.cycles_enumerated"
    return None


# (module, attribute, kind, before, after); methods are "Class.method"
SPECS = [
    ("cli", "main", "span", None, None),
    ("verify", "run_suite", "span", None, None),
    ("systems", "load_system", "span", _load_before, _load_after),
    ("systems", "lattice_model", "span", None, None),
    ("systems", "kakimizu_null_homotopy", "span", None, _null_homotopy_after),
    ("systems", "SurfaceSystem.pattern", "leaf", None, None),
    ("patterns", "validate_pattern", "leaf", None, None),
    ("patterns", "dualize", "leaf", None, None),
    ("patterns", "covering_spread", "leaf", None, None),
    ("patterns", "intersection_number", "leaf", None, None),
    ("complexes", "build_complex", "span", None, _build_after),
    ("complexes", "homology_h1", "span", None, None),
    ("complexes", "contractibility_report", "span", None, None),
    ("complexes", "is_locally_k_large", "span", None, None),
    ("complexes", "FlagComplex.distances_from", "leaf", None, None),
    ("complexes", "FlagComplex.induced", "leaf", None, None),
    ("complexes", "embedded_cycles", "iter", None, None),
    ("complexes", "induced_cycles", "iter", None, None),
    ("homology", "smith_invariants", "span", None, _snf_after),
    ("homotopy", "reduce_cycle_homotopy", "span", None, _reduce_after),
    ("homotopy", "replay", "span", None, _replay_after),
    ("homotopy", "apply_move", "leaf", None, None),
    ("homotopy", "validate_cycle", "leaf", None, None),
] + [("verify", fn, "span", *_make_claim_hooks(claim)) for fn, claim in CLAIMS.items()]


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`SPECS` wherever ``kakimizu`` binds it.

    Call after ``kakimizu`` is fully imported, so that every binding exists.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "kakimizu" or n.startswith("kakimizu."))]
    for layer, attr, kind, before, after in SPECS:
        name = f"{layer}.{attr}"
        owner, _, fn_name = attr.rpartition(".")
        target = sys.modules[f"kakimizu.{layer}"]
        if owner:
            target = getattr(target, owner)
        fn = getattr(target, fn_name)
        if kind == "iter":
            key = _cycles_key if attr == "embedded_cycles" else None
            wrapped = _wrap_iter(tracer, name, fn, key)
        elif kind == "leaf":
            wrapped = _wrap_leaf(tracer, name, fn)
        else:
            wrapped = _wrap_span(tracer, name, fn, before, after)
        if owner:  # a method: replace it on its class
            setattr(target, fn_name, wrapped)
            continue
        bound = 0
        for mod in modules:
            for k, v in list(vars(mod).items()):
                if v is fn:
                    setattr(mod, k, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name} is bound nowhere")
