"""The optimizer's choices, pinned: a change to planning speed may not move
a plan, a cost or a sampler decision.

``golden_plans.json`` was written by :func:`generate` on the commit before
the planning memo and the lazy catalog landed. Regenerate it (only when a
plan change is intended, and say so in the PR) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.optimizer.test_plan_golden
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import QuickrPlanner
from repro.algebra.addressing import plan_fingerprint
from repro.workloads.tpcds import QUERY_BUILDERS, generate_tpcds, query_by_name

GOLDEN = Path(__file__).with_name("golden_plans.json")
REPO = Path(__file__).resolve().parents[2]

#: (scale, seed): the ledger's star scale at its committed seed, and a small
#: scale at two more seeds where thin support flips decisions to pass-through.
DATABASES = ((0.3, 1), (0.05, 2), (0.05, 3))


def _decision(decision) -> list:
    spec = decision.spec
    return [
        spec.kind,
        repr(getattr(spec, "p", None)),
        getattr(spec, "delta", None),
        decision.c1,
        decision.c2,
        decision.reason,
    ]


def generate() -> dict:
    """Every TPC-DS query planned both ways on each database, as plain JSON."""
    golden = {}
    for scale, seed in DATABASES:
        db = generate_tpcds(scale=scale, seed=seed)
        planner = QuickrPlanner(db)
        for name in QUERY_BUILDERS:
            query = query_by_name(db, name)
            baseline = planner.plan_baseline(query)
            quickr = planner.plan(query)
            golden[f"scale={scale} seed={seed} {name}"] = {
                "baseline": {
                    "plan_fingerprint": plan_fingerprint(baseline.plan),
                    "machine_hours": repr(baseline.estimated_cost.machine_hours),
                },
                "quickr": {
                    "plan_fingerprint": plan_fingerprint(quickr.plan),
                    "approximable": quickr.approximable,
                    "sampler_kinds": quickr.sampler_kinds(),
                    "alternatives_explored": quickr.alternatives_explored,
                    "machine_hours": repr(quickr.estimated_cost.machine_hours),
                    "decisions": [_decision(d) for d in quickr.decisions],
                },
            }
    return golden


def test_plans_match_the_golden_file():
    # In a child with PYTHONHASHSEED=0: universe family ids — hence the
    # shared seed of paired universe samplers, hence q11-q14's fingerprints —
    # still come from builtin hash() over a plan key that contains strings
    # (ROADMAP 1(i)), and the golden file was written under the same pin.
    paths = [str(REPO / "src"), str(REPO), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, "-m", "tests.optimizer.test_plan_golden", "--print"],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    planned = json.loads(child.stdout)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert planned.keys() == golden.keys()
    moved = {key: planned[key] for key in golden if planned[key] != golden[key]}
    assert not moved, f"{len(moved)} of {len(golden)} plans moved: {sorted(moved)}"


if __name__ == "__main__":
    text = json.dumps(generate(), indent=1, sort_keys=True)
    if "--print" in sys.argv:
        print(text)
    else:
        GOLDEN.write_text(text + "\n", encoding="utf-8")
