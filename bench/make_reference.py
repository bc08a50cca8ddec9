"""Record the headline run's final state and invariant values as the gate reference.

Run from the repository root:  python3 bench/make_reference.py
It writes bench/reference/headline.json.  Only re-record it together with a
documented, justified change to the solver's output.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import relqtraj as rq  # noqa: E402

from workloads import HEADLINE_CONFIG, REFERENCE, Headline  # noqa: E402


def main():
    with open(os.path.join(ROOT, HEADLINE_CONFIG), "r", encoding="utf-8") as fh:
        cfg = rq.parse_config(fh.read())
    series = rq.integrate(cfg, cadence=Headline.cadence)
    report = rq.evaluate_invariants(series)
    final = series.snapshots[-1]
    ref = {
        "config": HEADLINE_CONFIG,
        "cadence": Headline.cadence,
        "final_T": final.tau_ensemble,
        "final_state": {k: getattr(final.state, k).tolist() for k in ("t", "x", "u0", "u1")},
        "invariants": {r.name: float(r.max_abs_violation) for r in report.records},
    }
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
