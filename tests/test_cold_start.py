"""Scoring processes start without SciPy.

``repro serve``, its spawn-started workers and ``repro score-csv``
import the package, load an artifact and score rows; none of that
calls SciPy, and importing it is most of such a process's start-up
time and about a third of its resident memory.  SciPy is imported on
first use only: in ``AgglomerativeClustering._cluster_exact`` (the
Table VI clustering baseline, also used by Raha) and in
``bench.repeats.paired_t_test``.

Each check runs in a fresh interpreter, because any earlier test in
this process may already have imported SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
V1_FLIGHTS = Path(__file__).parent / "data" / "flights_v1_artifact"

SCIPY_MODULES = (
    "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"
)


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scoring_process_loads_no_scipy():
    out = _run_fresh(f"""
import json, sys
import repro, repro.cli, repro.serving.workers
from repro.serving.scorer import BatchScorer
scorer = BatchScorer.from_artifact({str(V1_FLIGHTS)!r})
flags = scorer.score_rows([dict.fromkeys(scorer.attributes, "x")]).mask
print(json.dumps({{"rows": flags.n_rows, "scipy": {SCIPY_MODULES}}}))
""")
    assert out["rows"] == 1
    assert out["scipy"] == []


def test_first_scipy_import_inside_threaded_fit():
    # The agglomerative baseline's first SciPy import happens inside
    # Step 2's per-attribute thread fan-out; the mask must not depend
    # on the jobs count that did it.
    out = _run_fresh(f"""
import hashlib, json, sys
from repro import ZeroED, ZeroEDConfig, make_dataset
table = make_dataset("hospital", n_rows=150, seed=0).dirty
before = {SCIPY_MODULES}
hashes = []
for jobs in (4, 1):
    config = ZeroEDConfig(
        seed=0, clustering="agglomerative", n_jobs=jobs, label_rate=0.1,
        mlp_epochs=8, criteria_sample_size=20, embedding_dim=8,
    )
    mask = ZeroED(config).detect(table).mask
    hashes.append(hashlib.sha256(mask.matrix.tobytes()).hexdigest())
print(json.dumps({{
    "before": before,
    "after": "scipy.cluster.hierarchy" in sys.modules,
    "hashes": hashes,
}}))
""")
    assert out["before"] == []
    assert out["after"]
    threaded, serial = out["hashes"]
    assert threaded == serial
