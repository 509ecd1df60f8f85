"""The runtime needs no third-party package: numpy and networkx are
test and interop extras.

A fresh interpreter blocks ``import numpy`` and ``import networkx``,
imports every subpackage and the CLI, and drives the main paths end to
end: one-port HEFT and its replay, routed HEFT on a sparse ring, a
short iterated local search, and a platform's campaign payload.  Only
:attr:`Platform.link_matrix`, :func:`repro.analysis.comm_matrix` and
:meth:`TaskGraph.to_networkx` may need them.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib
import pkgutil
import sys

# every `import numpy` / `import networkx` now raises ImportError
sys.modules["numpy"] = None
sys.modules["networkx"] = None

import repro
import repro.cli
for info in pkgutil.iter_modules(repro.__path__, "repro."):
    if info.ispkg:
        importlib.import_module(info.name)

from repro import Platform
from repro.analysis import comm_matrix
from repro.core import platform_to_dict, validate_schedule
from repro.experiments import paper_platform
from repro.graphs import lu_graph
from repro.heuristics import get_scheduler
from repro.simulate import replay_schedule

graph = lu_graph(8)
heft = get_scheduler("heft").run(graph, paper_platform(), "one-port")
validate_schedule(heft)
replayed = replay_schedule(heft)
validate_schedule(replayed)
assert replayed.makespan() <= heft.makespan()

inf = float("inf")
ring = Platform(  # cheap links between neighbours only: P0 - P1 - P2 - P3 - P0
    [1.0, 2.0, 3.0, 4.0],
    [[0.0 if q == r else 0.01 if (q - r) % 4 in (1, 3) else inf for r in range(4)]
     for q in range(4)],
)
routed = get_scheduler("heft").run(graph, ring, "routed")
validate_schedule(routed)
assert any(e.hop > 0 for e in routed.comm_events), "no relayed transfer"

ils = get_scheduler("ils", budget=50).run(graph, paper_platform(), "one-port")
validate_schedule(ils)
assert ils.search_stats["evals"] == 50, ils.search_stats
assert ils.makespan() <= ils.search_stats["tightened_makespan"]

assert platform_to_dict(paper_platform()) == {
    "cycle_times": [6.0] * 5 + [10.0] * 3 + [15.0] * 2, "link": 1.0
}

for name, needs_extra in (
    ("link_matrix", lambda: ring.link_matrix),
    ("comm_matrix", lambda: comm_matrix(heft)),
    ("to_networkx", graph.to_networkx),
):
    try:
        needs_extra()
    except ImportError:
        pass
    else:
        raise AssertionError(f"{name} succeeded without its extra")
assert sys.modules["numpy"] is None
assert sys.modules["networkx"] is None
print("ok")
"""


def test_runtime_works_without_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
