#!/usr/bin/env python
"""Baseline demonstration (paper §1–2): on a §5.1 instance with a permuted
primary key, the classic keyed snapshot diff flags everything as changed,
while Affidavit recovers the transformation and the true insert/delete
sets."""
import sys
import time

from repro.baselines import keyed_diff
from repro.bench.datasets import make_dataset
from repro.bench.instances import PK_ATTR, make_instance
from repro.bench.metrics import evaluate_explanation
from repro.bench.session import build_session
from repro.core import AffidavitConfig, run_affidavit


def main() -> int:
    spark = build_session("repro-keyed-diff")
    spark.sparkContext.setLogLevel("ERROR")
    pdf = make_dataset("iris", seed=1)
    inst = make_instance(spark, pdf, eta=0.3, tau=0.3, seed=1)
    p = inst.problem

    d = keyed_diff(p.source, p.target, key_attrs=[PK_ATTR])
    print("keyed diff on the (reassigned) primary key:")
    for k, v in d.counts().items():
        print(f"  {k:>10}: {v}")
    print(f"  (ground truth: {inst.ref_core_size} aligned records, "
          f"{inst.ref_n_inserted} inserted, {inst.ref_n_deleted} deleted)")

    t0 = time.time()
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=2, queue_width=5))
    r = evaluate_explanation(inst, expl, runtime_s=time.time() - t0)
    print("\nAffidavit (Hid):")
    print(f"  core {expl.core_size}, inserted {expl.n_inserted}, "
          f"deleted {expl.n_deleted}")
    print(f"  dcore {r.dcore:.2f}  dcosts {r.dcosts:.2f}  acc {r.acc:.2f}  "
          f"t {r.t:.1f}s")
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
