"""Child-process entry points of the benchmark.

Every operation the benchmark times runs in a fresh process.  CLI
operations run ``python3 -m kakimizu.cli`` directly when untraced; this
script covers what the CLI cannot do and the traced variants::

    child.py [--trace PREFIX] cli ARGS...               kakimizu.cli.main(ARGS)
    child.py [--trace PREFIX] descent W H A0 B0 REPORT  run_suite(lattice_model(...))
    child.py gen-graphs N P PERM_SEED OUTDIR SEED...    gen graph, vertices relabelled
    child.py model W H A0 B0                            build lattice_model(...)
    child.py oracle FILE...                             networkx/sympy counts and b1

With ``--trace`` the tracer is installed before the work starts, and its
spans and counters are written under PREFIX when the work ends.  The oracle
runs here so that networkx and sympy never grow the harness process.
``PERFBENCH_SPAWN_T`` carries the parent's ``perf_counter()`` at spawn
(the clock is system-wide on Linux), which gives the start-up time.
"""
from __future__ import annotations

import os
import random
import sys
import time

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3}


def _relabelled_graph(n, edge_prob, gen_seed, perm_seed):
    """``kakimizu gen graph`` with the vertex indices permuted; permutation
    seed 0 is the identity, so it writes the CLI's bytes exactly."""
    from kakimizu.systems import graph_to_system, random_connected_graph

    edges = random_connected_graph(n, edge_prob, random.Random(gen_seed))
    perm = list(range(n))
    if perm_seed:
        random.Random(perm_seed).shuffle(perm)
    return graph_to_system(n, [(perm[a], perm[b]) for a, b in edges])


def _descent(width, height, a0, b0, report_path):
    from kakimizu.systems import lattice_model
    from kakimizu.verify import run_suite

    report = run_suite(lattice_model(width, height, a0, b0), "all")
    sys.stdout.write(report.to_table())
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    return EXIT_CODES[report.verdict]


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    cmd, args = argv[0], argv[1:]
    if cmd == "oracle":
        import json

        from workloads import clique_complex_b1

        for path in args:
            with open(path, encoding="utf-8") as fh:
                print(json.dumps(clique_complex_b1(json.load(fh))))
        return 0
    import kakimizu.cli  # imports every layer

    tracer = None
    install_s = 0.0
    if trace_out:
        import tracer as tracing

        started = time.perf_counter()
        tracer = tracing.Tracer(os.environ.get("PERFBENCH_RUN_ID", "0"))
        tracing.install(tracer)
        install_s = time.perf_counter() - started
    spawned = float(os.environ.get("PERFBENCH_SPAWN_T", time.perf_counter()))
    startup_s = time.perf_counter() - spawned - install_s

    if cmd == "cli":
        code = kakimizu.cli.main(args)
    elif cmd == "descent":
        w, h, a0, b0 = map(int, args[:4])
        code = _descent(w, h, a0, b0, args[4])
    elif cmd == "gen-graphs":
        from kakimizu.systems import save_system

        n, p, perm_seed, outdir = int(args[0]), float(args[1]), int(args[2]), args[3]
        for gen_seed in map(int, args[4:]):
            text = save_system(_relabelled_graph(n, p, gen_seed, perm_seed))
            with open(os.path.join(outdir, f"g{gen_seed}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
        code = 0
    elif cmd == "model":
        from kakimizu.systems import lattice_model

        system = lattice_model(*map(int, args[:4]))
        print(f"{len(system.vertex_ids())} vertices, {len(system.stored_patterns())} patterns")
        code = 0
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_out, {"startup_s": startup_s, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
