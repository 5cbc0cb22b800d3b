#!/usr/bin/env python3
"""Benchmark of ``kakimizu verify``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark makes its inputs from the
seed (set-up, timed as ``setup_s``), then times passes over the workload's
operations for about ``S`` seconds.  The load comes from this one process:
every operation runs in a fresh child process, one at a time, and is killed
after ``workloads.OP_LIMIT_S``.  Each operation's exit code, verdict and H1 are checked
against a source outside the program (see ``workloads.py``); an operation
that crashes, times out or answers wrongly counts as failed.

Times are CPU times (user + system) of the children, from ``wait4``: on a
shared host, wall time also counts the time a child waited for a CPU, which
varies from run to run with the neighbours' load.  The wall time of a pass
is printed beside them, and is a per-layer metric of the traced run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, where ``tracer.py`` records spans around
the calls into each layer, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads as W
from child import EXIT_CODES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 165.0     # no operation starts or runs past this point
SETUP_MIN_REPEATS = 3   # set-up repeats at least this often,
SETUP_MIN_S = 1.0       # and until it has taken this long in total

perf = time.perf_counter


@dataclass
class OpResult:
    label: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    problems: list = field(default_factory=list)
    stdout: bytes = b""
    report: bytes = b""
    cycles: int = 0       # instances of simple_connectivity minus the H1 check
    trace: dict = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


class Launcher:
    """Client of ``launcher.py``, which forks every timed child; see there
    why they are not forked from this process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def spawn(self, argv, cwd: Path, timeout: float, env: dict, out: Path, err: Path):
        """Run one child; returns the launcher's reply: ``wall_s``, ``cpu_s``
        (user + system), ``rss_mib`` (peak RSS), ``code``, ``timed_out``."""
        req = {"argv": [str(a) for a in argv], "cwd": str(cwd), "env": env,
               "timeout": timeout, "out": str(out), "err": str(err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=W.OP_LIMIT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check(op: W.Op, code: int, stdout: bytes, stderr: bytes, result: OpResult) -> None:
    """Compare one operation's answer with its expectation."""
    problems = result.problems
    if b"Traceback" in stderr or code not in EXIT_CODES.values():
        problems.append(f"crashed with exit code {code}: "
                        f"{stderr.decode(errors='replace').strip()[-200:]}")
        return
    try:
        result.report = op.report.read_bytes()
        report = json.loads(result.report)
        verdict = report["verdict"]
        claims = {c["claim"]: c for c in report["claims"]}
        sc = claims["simple_connectivity"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"no readable report: {exc}")
        return
    result.cycles = sc["instances"] - 1
    last = stdout.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
    if last != f"overall: {verdict}":
        problems.append(f"stdout ends {last!r}, report says {verdict!r}")
    if code != EXIT_CODES.get(verdict):
        problems.append(f"exit code {code} does not match verdict {verdict!r}")
    if op.expect.verdict is not None and verdict != op.expect.verdict:
        problems.append(f"verdict {verdict!r}, expected {op.expect.verdict!r}")
    if op.expect.exit_code is not None and code != op.expect.exit_code:
        problems.append(f"exit code {code}, expected {op.expect.exit_code}")
    h1 = next((f["h1"] for f in sc["failures"] if f.get("problem") == "H1 nontrivial"), "0")
    if h1 != op.expect.h1:
        problems.append(f"H1 = {h1}, expected {op.expect.h1}")


def run_op(launcher, op: W.Op, work: Path, traced: bool, deadline: float,
           run_id: str) -> OpResult:
    result = OpResult(op.label)
    timeout = min(W.OP_LIMIT_S, deadline - perf())
    if timeout <= 0:
        result.problems.append("not started: run time limit reached")
        return result
    op.report.unlink(missing_ok=True)
    trace_prefix = work / op.label
    argv = W.child("--trace", trace_prefix, *op.traced_args) if traced else op.argv
    out, err = work / f"{op.label}.out", work / f"{op.label}.err"
    r = launcher.spawn(argv, work, timeout, child_env({"PERFBENCH_RUN_ID": run_id}),
                       out, err)
    result.wall_s, result.cpu_s, result.rss_mib = r["wall_s"], r["cpu_s"], r["rss_mib"]
    code = r["code"]
    result.stdout = out.read_bytes()
    if r["timed_out"]:
        result.problems.append(f"killed after {timeout:g} s")
        return result
    check(op, code, result.stdout, err.read_bytes(), result)
    if traced and result.ok:
        result.trace = json.loads(Path(f"{trace_prefix}.summary.json").read_text(
            encoding="utf-8"))
        if result.trace["counters"].get("complexes.cycles_enumerated", 0) != result.cycles:
            result.problems.append("traced cycle count differs from simple_connectivity "
                                   "instances - 1")
    return result


# -- statistics ---------------------------------------------------------------


def quantile(samples, p: float) -> float:
    xs = sorted(samples)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile of a fixed ladder with at least ten samples beyond
    it; the median when there are fewer than twenty samples."""
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


# -- per-layer metrics ----------------------------------------------------------

CLAIM_FNS = {claim: fn for fn, claim in tracing.CLAIMS.items()}

# metric -> (kind, source): calls or inclusive seconds of a traced name, or a counter
LAYER_SOURCES = {
    "homology.snf_calls": ("calls", "homology.smith_invariants"),
    "homology.snf_s": ("incl", "homology.smith_invariants"),
    "homology.snf_cells": ("counter", "homology.snf_cells"),
    "complexes.h1_calls": ("calls", "complexes.homology_h1"),
    "complexes.h1_s": ("incl", "complexes.homology_h1"),
    "homotopy.reduce_calls": ("calls", "homotopy.reduce_cycle_homotopy"),
    "homotopy.reduce_s": ("incl", "homotopy.reduce_cycle_homotopy"),
    "homotopy.reduce_steps": ("counter", "homotopy.reduce_steps"),
    "homotopy.budget_stops": ("counter", "homotopy.budget_stops"),
    "systems.null_homotopy_calls": ("calls", "systems.kakimizu_null_homotopy"),
    "systems.null_homotopy_s": ("incl", "systems.kakimizu_null_homotopy"),
    "systems.null_homotopy_steps": ("counter", "systems.null_homotopy_steps"),
    "homotopy.replay_calls": ("calls", "homotopy.replay"),
    "homotopy.replay_s": ("incl", "homotopy.replay"),
    "homotopy.moves_replayed": ("counter", "homotopy.moves_replayed"),
    "homotopy.apply_move_calls": ("calls", "homotopy.apply_move"),
    "systems.load_s": ("incl", "systems.load_system"),
    "systems.load_mib": ("counter", "systems.load_mib"),
    "systems.pattern_calls": ("calls", "systems.SurfaceSystem.pattern"),
    "patterns.validate_calls": ("calls", "patterns.validate_pattern"),
    "patterns.dualize_calls": ("calls", "patterns.dualize"),
    "complexes.build_calls": ("calls", "complexes.build_complex"),
    "complexes.build_s": ("incl", "complexes.build_complex"),
    "complexes.bfs_calls": ("calls", "complexes.FlagComplex.distances_from"),
    "complexes.bfs_s": ("incl", "complexes.FlagComplex.distances_from"),
    "complexes.cycles_enumerated": ("counter", "complexes.cycles_enumerated"),
    "complexes.cycle_enum_s": ("incl", "complexes.embedded_cycles"),
    "complexes.induced_scan_s": ("incl", "complexes.induced_cycles"),
    "complexes.subcomplex_calls": ("calls", "complexes.FlagComplex.induced"),
    "complexes.largeness_s": ("incl", "complexes.is_locally_k_large"),
    "verify.instances": ("counter", "verify.instances"),
    "verify.inconclusive": ("counter", "verify.inconclusive"),
    "input.vertices": ("counter", "input.vertices"),
    "input.edges": ("counter", "input.edges"),
    "input.triangles": ("counter", "input.triangles"),
    **{f"verify.{claim}_s": ("incl", f"verify.{fn}") for claim, fn in CLAIM_FNS.items()},
}


PER_LAYER_UNITS = {
    **{name: ("s" if name.endswith("_s") else "MiB" if name.endswith("_mib") else "count")
       for name in LAYER_SOURCES},
    "homotopy.reduced_share": "ratio",
    "cli.startup_s": "s",
    "trace.spans": "count",
    **{f"self_share.{layer}": "ratio" for layer in tracing.LAYERS},
}


def layer_values(dump: dict) -> dict:
    """Per-layer values of one traced operation."""
    stats, counters = dump["stats"], dump["counters"]
    out = {}
    for metric, (kind, src) in LAYER_SOURCES.items():
        if kind == "counter":
            out[metric] = counters.get(src, 0)
        else:
            out[metric] = stats.get(src, (0, 0.0, 0.0))[0 if kind == "calls" else 1]
    out["homotopy.reduced"] = counters.get("homotopy.reduced", 0)
    out["cli.startup_s"] = dump["startup_s"]
    out["root_s"] = dump["root_s"]
    out["claim_gap_s"] = sum(stats.get(f"verify.{fn}", (0, 0.0))[1]
                             - counters.get(f"verify.{claim}_elapsed", 0.0)
                             for claim, fn in CLAIM_FNS.items())
    for layer in tracing.LAYERS:
        out[f"self.{layer}"] = sum(s[2] for name, s in stats.items()
                                   if name.startswith(layer + "."))
    out["trace.spans"] = dump["spans"]
    return out


def pass_layers(ops) -> dict:
    total = {}
    for r in ops:
        for k, v in layer_values(r.trace).items():
            total[k] = total.get(k, 0) + v
    calls = total["homotopy.reduce_calls"]
    total["homotopy.reduced_share"] = total["homotopy.reduced"] / calls if calls else 0.0
    for layer in tracing.LAYERS:
        total[f"self_share.{layer}"] = total[f"self.{layer}"] / total["root_s"]
    return total


# -- the run --------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    ops: list

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)


def setup(launcher, wl, work: Path, seed: int, repeat: bool, deadline: float) -> list:
    """Make the inputs, once or (``repeat``) until the median of the set-up
    times is steady; returns each set-up's CPU time (user + system)."""
    times = []
    while not times or repeat and (len(times) < SETUP_MIN_REPEATS
                                   or sum(times) < SETUP_MIN_S):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        total = 0.0
        for argv in wl.setup(work, seed):
            r = launcher.spawn(argv, work, deadline - perf(), child_env(),
                               work / "setup.out", work / "setup.err")
            if r["code"] != 0 or r["timed_out"]:
                err = (work / "setup.err").read_text(errors="replace")[-500:]
                raise SystemExit(f"set-up failed ({' '.join(map(str, argv))}): {err}")
            total += r["cpu_s"]
        times.append(total)
    return times


def measure(launcher, wl, inputs: W.Inputs, work: Path, seconds: float, trace: bool,
            deadline: float) -> list:
    passes = []
    started = perf()
    modes = [False, True] if trace else [False]
    while True:
        traced = modes[len(passes) % len(modes)]
        same = [p.wall_s for p in passes if p.traced == traced]
        typical = statistics.median(same) if same else 0.0
        done_modes = {p.traced for p in passes} == set(modes)
        if done_modes and perf() - started + typical / 2 >= seconds:
            break
        if perf() >= deadline:
            break
        run_id = f"{wl.name}-pass{len(passes)}"
        passes.append(Pass(traced, [run_op(launcher, op, work, traced, deadline,
                                           f"{run_id}-{op.label}") for op in inputs.ops]))
    return passes


def pass_time(passes, attr: str) -> float:
    """Time of one pass: the sum over operations of each operation's median
    over the passes, which is steadier than the median of pass sums when a
    run holds few passes."""
    return sum(statistics.median(getattr(p.ops[i], attr) for p in passes)
               for i in range(len(passes[0].ops)))


def digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def summarize(wl, seed, inputs, setup_times, passes, trace, out=print) -> dict:
    """Print the human-readable lines and return the result object."""
    ops = [r for p in passes for r in p.ops]
    failed = [r for r in ops if not r.ok]
    untraced = [p for p in passes if not p.traced]
    checks = []   # harness checks of the trace itself
    counts = dict(inputs.counts)
    counts["cycles_enumerated"] = sum(r.cycles for r in untraced[0].ops)
    counts["input_bytes"] = sum(f.stat().st_size for f in inputs.files)
    out(f"workload {wl.name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
        f"operations {len(ops)}  op limit {W.OP_LIMIT_S:g} s")
    out("counts: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
    for kind in ("stdout", "report"):
        hashes = sorted({digest(getattr(r, kind) for r in p.ops) for p in passes})
        out(f"sha256 {kind}: {' '.join(hashes)}"
            + ("" if len(hashes) == 1 else "  (passes differ)"))
    for msg in [f"{r.label}: {m}" for r in failed for m in r.problems][:20]:
        out(f"FAILED {msg}")

    metrics = {}

    def put(name, value, unit, how):
        metrics[name] = {"value": value, "unit": unit}
        out(f"  {name:<34} {value:>14.6g} {unit:<6} {how}")

    out(f"  an untraced pass took {pass_time(untraced, 'wall_s'):.4f} s wall, "
        f"{pass_time(untraced, 'cpu_s'):.4f} s CPU")
    if not trace:
        samples = [r.cpu_s for p in untraced for r in p.ops]
        p = tail_percentile(len(samples))
        put("setup_s", statistics.median(setup_times), "s",
            f"CPU time, median of {len(setup_times)} set-ups")
        put("verify_cpu_s", pass_time(untraced, "cpu_s"), "s",
            f"sum over operations of the median over {len(untraced)} passes")
        put("verdict_tail_cpu_s", quantile(samples, p), "s",
            f"p{p:g} of {len(samples)} operations")
        put("peak_rss_mib", max(r.rss_mib for r in ops), "MiB",
            f"max over {len(ops)} operations")
        put("ok_share", (len(ops) - len(failed)) / len(ops), "ratio",
            f"fail_share {len(failed) / len(ops):g} = {len(failed)}/{len(ops)}")
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [pass_layers(p.ops) for p in traced if all(r.ok for r in p.ops)]
        if per_pass:
            base = pass_time(untraced, "cpu_s")
            with_trace = pass_time(traced, "cpu_s")
            overhead = with_trace - base
            med = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
            for d in per_pass:
                if not -1e-3 <= d["claim_gap_s"] <= max(overhead, 5e-3):
                    checks.append(f"claim spans exceed ClaimReport.elapsed by "
                                  f"{d['claim_gap_s']:.4f} s")
            for key in ("vertices", "edges", "triangles"):
                if med[f"input.{key}"] != counts[key]:
                    checks.append(f"traced {key} {med[f'input.{key}']} != "
                                  f"independent count {counts[key]}")
            for name, unit in PER_LAYER_UNITS.items():
                put(name, med[name], unit, f"median of {len(per_pass)} traced passes")
            put("wall.verify_s", pass_time(untraced, "wall_s"), "s",
                "an untraced pass in wall time")
            put("trace.overhead_s", overhead, "s",
                f"traced {with_trace:.4f} s - untraced {base:.4f} s CPU per pass")
            put("trace.overhead_share", overhead / base, "ratio", "overhead / untraced pass")
            put("input.bytes", counts["input_bytes"], "bytes", "input files")
            lead = max(tracing.LAYERS, key=lambda layer: med[f"self_share.{layer}"])
            out(f"  leading layer by self time: {lead}")
        else:
            checks.append("no traced pass without failures")
        for problem in checks:
            out(f"CHECK FAILED {problem}")
    return {"correct": not failed and not checks, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def keep_spans(wl, seed, work: Path, passes) -> Path:
    """Move the span files of the last traced pass out of the work directory."""
    dest = ROOT / ".bench_out" / f"{wl.name}-seed{seed}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    last = [p for p in passes if p.traced][-1]
    for r in last.ops:
        src = work / f"{r.label}.spans.json"
        if src.exists():
            shutil.move(src, dest / src.name)
    return dest


def run(wl, seed: int, seconds: float, trace: bool, out=print) -> dict:
    deadline = perf() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        with Launcher() as launcher:
            setup_times = setup(launcher, wl, work, seed, not trace, deadline)
            inputs = wl.inputs(work, seed)
            passes = measure(launcher, wl, inputs, work, seconds, trace, deadline)
        if trace:
            out(f"spans of the last traced pass: {keep_spans(wl, seed, work, passes)}")
        return summarize(wl, seed, inputs, setup_times, passes, trace, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kakimizu" / "cli.py").is_file():
        print(f"error: no kakimizu sources under {SRC}", file=sys.stderr)
        return 2
    result = run(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
