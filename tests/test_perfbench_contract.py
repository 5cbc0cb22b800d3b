"""The benchmark tracer wraps kakimizu's public functions by name; this runs
its traced child on a copy of ``perfbench/`` so a renamed or unbound name,
or a cycle sweep the tracer no longer recognises, fails here first."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import kakimizu as kk

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_run_keeps_the_tracer_contract(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench, ignore=shutil.ignore_patterns("__pycache__"))
    system_file = tmp_path / "lattice.json"
    system_file.write_text(kk.save_system(kk.lattice_model(5, 5)), encoding="utf-8")
    report_file = tmp_path / "report.json"
    prefix = tmp_path / "trace"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(bench / "child.py"), "--trace", str(prefix), "cli", "verify",
         str(system_file), "--suite", "all", "--json", str(report_file)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(Path(f"{prefix}.summary.json").read_text(encoding="utf-8"))
    claims = {c["claim"]: c for c in json.loads(report_file.read_text(encoding="utf-8"))["claims"]}
    assert (summary["counters"]["complexes.cycles_enumerated"]
            == claims["simple_connectivity"]["instances"] - 1)
    assert summary["stats"]["homology.smith_invariants"][0] == 1
