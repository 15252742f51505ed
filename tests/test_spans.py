"""The benchmark's tracer (perfbench/spans.py) wraps the package's call
boundaries by attribute name, so a renamed or bypassed boundary would break
only traced benchmark runs.  A traced march must record each one."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_MARCH = """
from mixedflow import solver
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import build_mesh
from perfbench.spans import Tracer, install

tracer = Tracer()
install(tracer)
solver.march(builtin_problem("example1"), build_mesh(4),
             solver.MarchConfig(dt=0.125, final_time=0.25))
print(" ".join(sorted(tracer.calls)))
"""


def test_traced_march_records_call_boundaries():
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", TRACED_MARCH], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = set(proc.stdout.split())
    assert {"assembly.initial_state", "solver.newton", "solver.factor",
            "constitutive.eval"} <= spans
