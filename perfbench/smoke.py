#!/usr/bin/env python3
"""Smoke check of the benchmark at toy sizes (well under a minute):

    python3 perfbench/smoke.py

Runs every workload at toy size, untraced and traced, and asserts that each
metric listed in ``BENCHMARK.json`` is printed with its unit and that every
operation passes its checks.  Then it corrupts one pattern of a lattice file
so that d != cs + 1 and asserts that the operation lands in the failed count
instead of crashing the harness, and that an operation over the time limit
is killed and counted as failed.
"""
from __future__ import annotations

import json
import os
import sys

import run as bench
import workloads as W


def corrupt_one_pattern(path) -> None:
    """Lengthen one stored pattern by a translate: its covering spread grows
    by one while the complex, and so the distance, stays the same."""
    system = json.loads(path.read_text(encoding="utf-8"))
    system["patterns"][0]["counts"].append(1)
    path.write_text(json.dumps(system, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the whys state the operation time limit, so they must match the code
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in W.WORKLOADS.values()}
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in W.toy_workloads().values():
        for trace in (False, True):
            lines = []
            result = bench.run(wl, 1, 0.5, trace, out=lines.append)
            print("\n".join(lines))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == wanted[trace], set(units) ^ set(wanted[trace])
            for name, unit in units.items():
                assert any(line.split()[:1] == [name] and f" {unit} " in line
                           for line in lines), f"{name} [{unit}] not printed"
            assert result["correct"] and result["failed"] == 0, result

    wl = W.toy_workloads()["lattice-file"]
    work = bench.ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    deadline = bench.perf() + bench.RUN_LIMIT_S
    try:
        with bench.Launcher() as launcher:
            times = bench.setup(launcher, wl, work, 1, False, deadline)
            corrupt_one_pattern(work / "lat.json")
            inputs = wl.inputs(work, 1)
            passes = bench.measure(launcher, wl, inputs, work, 0.5, False, deadline)
        lines = []
        result = bench.summarize(wl, 1, inputs, times, passes, False, out=lines.append)
    finally:
        bench.shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert any("verdict 'fail', expected 'pass'" in line for line in lines)

    # an operation over the time limit is killed and counted as failed
    limit, W.OP_LIMIT_S = W.OP_LIMIT_S, 0.01
    try:
        lines = []
        result = bench.run(W.toy_workloads()["line-wide"], 1, 0.5, False, out=lines.append)
    finally:
        W.OP_LIMIT_S = limit
    print("\n".join(lines))
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
    assert any("killed after" in line for line in lines)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
