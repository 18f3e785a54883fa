"""Set-up in a fresh interpreter: import slitflow and make the one-time builds.

Prints one JSON line as soon as it is ready; the parent times from spawning
this process to reading that line.  Also reports what only an interpreter
with slitflow loaded can tell: library versions, the BLAS build and the
support-patch sizes the workloads compute their kernel work from.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import slitflow  # noqa: E402

import_s = time.perf_counter() - t0

import numpy  # noqa: E402
import scipy  # noqa: E402
from slitflow.classify import enumerate_families  # noqa: E402
from slitflow.conformal import sc_map_build  # noqa: E402
from slitflow.gff import RectDomain, TestFn, eigen_basis, patch_from_testfn  # noqa: E402

from workloads import CP_BUMP, HIT_CONFIGS, QV_BUMP  # noqa: E402

for kappa in (2, 3, 4, 5, 6, 8):
    enumerate_families(kappa)
for (kappa, alpha), _ in HIT_CONFIGS:
    sc_map_build(kappa, alpha)
dom = RectDomain()
eigen_basis(dom)
patch_points = {
    name: int(patch_from_testfn(dom, TestFn(*bump)).centers.size)
    for name, bump in (("qv", QV_BUMP), ("coupling", CP_BUMP))
}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "import_s": import_s,
    "patch_points": patch_points,
    "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "slitflow": slitflow.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    },
}), flush=True)
