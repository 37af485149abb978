"""Table 2 harness: the paper's full evaluation grid.

17 datasets x 3 settings (eta, tau) in {(.3,.3), (.5,.5), (.7,.7)} x 2
configurations:

* ``Hs``  — overlap start state, beta = 1, queue width 1 (greedy, no
  backtracking), overlap matching bounded by a max block size;
* ``Hid`` — H^id start states, beta = 2, queue width 5 (more exhaustive).

Both use alpha = 0.5, theta = 0.1, rho = 0.95 (§5.2). Metrics are
macro-averaged over ``n_instances`` random instances per cell.

``PAPER`` holds the numbers printed in the paper's Table 2 so the harness
can show paper vs. measured side by side (EXPERIMENTS.md). The Hs
max-block-size threshold is scaled by (rows_ours / rows_paper)^2 because
the number of record pairs a shared value generates grows quadratically
with the snapshot size — this preserves the paper's Hs failure mode on the
low-cardinality datasets at reduced scale.

Cells run concurrently on driver threads: one Affidavit search uses only a
couple of Spark tasks at a time at these data sizes, so the grid is
latency- not throughput-bound.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from pyspark.sql import SparkSession

from ..core.affidavit import AffidavitConfig, run_affidavit
from .datasets import DATASETS, make_dataset
from .instances import make_instance
from .metrics import CellResult, evaluate_explanation

__all__ = ["SETTINGS", "CONFIG_NAMES", "PAPER", "run_cell", "run_table2", "format_rows"]

SETTINGS: list[tuple[float, float]] = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.7)]
CONFIG_NAMES = ["Hs", "Hid"]

# Paper Table 2, transcribed: PAPER[dataset][config][setting] = (t, dcore, dcosts, acc)
PAPER: dict[str, dict[str, dict[tuple[float, float], tuple]]] = {
    "iris": {
        "Hs": {(0.3, 0.3): (0.12, 1.01, 1.0, 1.0), (0.5, 0.5): (0.09, 0.99, 1.01, 0.99), (0.7, 0.7): (0.10, 1.04, 0.99, 0.99)},
        "Hid": {(0.3, 0.3): (0.69, 1.01, 1.0, 1.0), (0.5, 0.5): (0.51, 1.02, 0.99, 1.0), (0.7, 0.7): (0.38, 1.05, 0.99, 0.99)},
    },
    "balance": {
        "Hs": {(0.3, 0.3): (0.23, 1.01, 0.99, 0.99), (0.5, 0.5): (0.21, 0.96, 1.02, 0.92), (0.7, 0.7): (0.19, 1.42, 0.9, 0.84)},
        "Hid": {(0.3, 0.3): (0.82, 1.01, 0.99, 0.99), (0.5, 0.5): (0.63, 0.93, 1.03, 0.9), (0.7, 0.7): (0.79, 1.44, 0.89, 0.86)},
    },
    "chess": {
        "Hs": {(0.3, 0.3): (2.83, 0.0, 2.11, 0.43), (0.5, 0.5): (2.16, 0.24, 1.46, 0.56), (0.7, 0.7): (2.00, 0.45, 1.16, 0.6)},
        "Hid": {(0.3, 0.3): (7.70, 1.03, 0.96, 1.0), (0.5, 0.5): (6.37, 1.05, 0.97, 0.98), (0.7, 0.7): (12.97, 1.24, 0.93, 0.86)},
    },
    "abalone": {
        "Hs": {(0.3, 0.3): (1.49, 0.98, 1.02, 1.0), (0.5, 0.5): (1.01, 0.98, 1.01, 1.0), (0.7, 0.7): (0.88, 0.82, 1.04, 0.89)},
        "Hid": {(0.3, 0.3): (8.70, 1.0, 1.0, 1.0), (0.5, 0.5): (3.44, 1.0, 1.0, 1.0), (0.7, 0.7): (3.61, 0.97, 1.01, 1.0)},
    },
    "nursery": {
        "Hs": {(0.3, 0.3): (1.58, 0.0, 2.27, 0.51), (0.5, 0.5): (1.36, 0.16, 1.56, 0.56), (0.7, 0.7): (1.41, 0.0, 1.32, 0.48)},
        "Hid": {(0.3, 0.3): (4.24, 1.0, 1.01, 0.98), (0.5, 0.5): (5.26, 0.96, 1.03, 0.85), (0.7, 0.7): (4.63, 1.55, 0.83, 0.87)},
    },
    "bridges": {
        "Hs": {(0.3, 0.3): (0.05, 0.99, 1.02, 1.0), (0.5, 0.5): (0.08, 0.96, 1.04, 0.99), (0.7, 0.7): (0.08, 1.05, 1.11, 0.9)},
        "Hid": {(0.3, 0.3): (0.43, 1.0, 1.0, 1.0), (0.5, 0.5): (0.50, 1.0, 1.01, 0.99), (0.7, 0.7): (0.69, 1.15, 1.04, 0.96)},
    },
    "echo": {
        "Hs": {(0.3, 0.3): (0.07, 0.99, 1.02, 1.0), (0.5, 0.5): (0.13, 0.93, 1.06, 0.98), (0.7, 0.7): (0.11, 0.89, 1.13, 0.93)},
        "Hid": {(0.3, 0.3): (0.79, 0.99, 1.02, 1.0), (0.5, 0.5): (0.89, 0.93, 1.04, 0.99), (0.7, 0.7): (0.95, 0.87, 1.11, 0.94)},
    },
    "breast": {
        "Hs": {(0.3, 0.3): (0.39, 1.07, 0.91, 1.0), (0.5, 0.5): (0.42, 1.21, 0.85, 0.99), (0.7, 0.7): (0.42, 1.49, 0.83, 0.98)},
        "Hid": {(0.3, 0.3): (1.02, 1.1, 0.86, 1.0), (0.5, 0.5): (1.08, 1.26, 0.81, 1.0), (0.7, 0.7): (1.37, 1.6, 0.8, 0.99)},
    },
    "adult": {
        "Hs": {(0.3, 0.3): (6.42, 0.96, 1.06, 1.0), (0.5, 0.5): (5.57, 0.97, 1.05, 0.99), (0.7, 0.7): (4.17, 0.99, 1.03, 0.97)},
        "Hid": {(0.3, 0.3): (14.33, 1.0, 1.01, 1.0), (0.5, 0.5): (19.91, 0.93, 1.1, 0.99), (0.7, 0.7): (17.38, 1.1, 0.99, 0.98)},
    },
    "ncvoter-1k": {
        "Hs": {(0.3, 0.3): (0.58, 0.95, 1.08, 1.0), (0.5, 0.5): (0.57, 0.99, 1.01, 1.0), (0.7, 0.7): (0.85, 0.88, 1.06, 0.97)},
        "Hid": {(0.3, 0.3): (1.81, 0.99, 1.02, 1.0), (0.5, 0.5): (2.33, 0.98, 1.01, 1.0), (0.7, 0.7): (3.50, 0.87, 1.07, 0.96)},
    },
    "letter": {
        "Hs": {(0.3, 0.3): (4.41, 0.0, 2.65, 0.86), (0.5, 0.5): (5.04, 0.31, 1.55, 0.82), (0.7, 0.7): (5.59, 0.68, 1.12, 0.79)},
        "Hid": {(0.3, 0.3): (12.73, 1.02, 0.97, 1.0), (0.5, 0.5): (10.78, 1.04, 0.97, 1.0), (0.7, 0.7): (9.40, 1.14, 0.95, 1.0)},
    },
    "hepatitis": {
        "Hs": {(0.3, 0.3): (0.11, 0.95, 1.09, 1.0), (0.5, 0.5): (0.14, 0.97, 1.02, 1.0), (0.7, 0.7): (0.19, 0.83, 1.09, 0.98)},
        "Hid": {(0.3, 0.3): (0.79, 0.94, 1.1, 1.0), (0.5, 0.5): (0.71, 0.96, 1.03, 1.0), (0.7, 0.7): (0.76, 0.82, 1.09, 0.97)},
    },
    "horse": {
        "Hs": {(0.3, 0.3): (0.23, 0.99, 1.01, 1.0), (0.5, 0.5): (0.38, 0.89, 1.09, 0.99), (0.7, 0.7): (0.56, 0.99, 1.01, 1.0)},
        "Hid": {(0.3, 0.3): (1.19, 0.97, 1.06, 1.0), (0.5, 0.5): (1.36, 0.94, 1.05, 0.99), (0.7, 0.7): (1.82, 0.82, 1.07, 0.98)},
    },
    "fd-red-30": {
        "Hs": {(0.3, 0.3): (261.18, 1.03, 1.06, 1.0), (0.5, 0.5): (190.49, 0.96, 1.04, 1.0), (0.7, 0.7): (132.03, 0.98, 1.01, 1.0)},
        "Hid": {(0.3, 0.3): (281.46, 1.0, 1.0, 1.0), (0.5, 0.5): (342.02, 1.0, 1.0, 1.0), (0.7, 0.7): (242.51, 1.0, 1.0, 1.0)},
    },
    "plista": {
        "Hs": {(0.3, 0.3): (1.70, 0.9, 1.2, 1.0), (0.5, 0.5): (2.35, 0.89, 1.1, 0.99), (0.7, 0.7): (2.52, 1.06, 0.98, 1.0)},
        "Hid": {(0.3, 0.3): (4.34, 0.98, 1.05, 1.0), (0.5, 0.5): (6.74, 1.01, 0.99, 1.0), (0.7, 0.7): (8.28, 0.93, 1.03, 0.99)},
    },
    "flight-1k": {
        "Hs": {(0.3, 0.3): (2.67, 0.81, 1.41, 0.99), (0.5, 0.5): (3.85, 0.68, 1.3, 0.98), (0.7, 0.7): (4.82, 0.69, 1.13, 0.98)},
        "Hid": {(0.3, 0.3): (14.98, 1.0, 1.01, 1.0), (0.5, 0.5): (26.58, 0.95, 1.05, 1.0), (0.7, 0.7): (35.89, 0.9, 1.05, 0.99)},
    },
    "uniprot": {
        "Hs": {(0.3, 0.3): (2.95, 0.45, 2.23, 0.99), (0.5, 0.5): (2.80, 0.33, 1.65, 0.99), (0.7, 0.7): (3.96, 0.77, 1.1, 1.0)},
        "Hid": {(0.3, 0.3): (49.52, 1.0, 1.01, 1.0), (0.5, 0.5): (40.55, 1.0, 1.01, 1.0), (0.7, 0.7): (33.70, 0.85, 1.08, 1.0)},
    },
}


def scaled_block_threshold(dataset: str) -> int:
    """Hs max block size, scaled quadratically with the record count (pair
    counts grow with the product of the two value frequencies)."""
    spec = DATASETS[dataset]
    t = 100_000 * (spec.bench_rows / spec.n_rows) ** 2
    return max(50, round(t))


def make_config(config_name: str, dataset: str, seed: int) -> AffidavitConfig:
    if config_name == "Hs":
        return AffidavitConfig(
            start="overlap",
            beta=1,
            queue_width=1,
            max_block_size=scaled_block_threshold(dataset),
            seed=seed,
        )
    if config_name == "Hid":
        return AffidavitConfig(start="id", beta=2, queue_width=5, seed=seed)
    raise ValueError(config_name)


@dataclass
class CellRow:
    dataset: str
    setting: tuple[float, float]
    config: str
    measured: CellResult
    paper: tuple  # (t, dcore, dcosts, acc)
    n_instances: int


def run_cell(
    spark: SparkSession,
    dataset: str,
    setting: tuple[float, float],
    config_name: str,
    *,
    n_instances: int = 1,
    seed: int = 0,
    n_rows: int | None = None,
    n_attrs: int | None = None,
) -> CellRow:
    """One Table 2 cell: macro-average over n_instances random instances."""
    eta, tau = setting
    accs, dcores, dcostss, ts = [], [], [], []
    for i in range(n_instances):
        inst_seed = seed * 100_003 + i * 977 + round(1000 * (eta + 10 * tau))
        pdf = make_dataset(dataset, n_rows=n_rows, n_attrs=n_attrs, seed=inst_seed)
        inst = make_instance(spark, pdf, eta=eta, tau=tau, seed=inst_seed + 1)
        cfg = make_config(config_name, dataset, inst_seed + 2)
        t0 = time.perf_counter()
        expl, _diag = run_affidavit(inst.problem, cfg)
        t = time.perf_counter() - t0
        r = evaluate_explanation(inst, expl, runtime_s=t, alpha=cfg.alpha)
        ts.append(r.t)
        dcores.append(r.dcore)
        dcostss.append(r.dcosts)
        accs.append(r.acc)
    avg = CellResult(
        t=sum(ts) / len(ts),
        dcore=sum(dcores) / len(dcores),
        dcosts=sum(dcostss) / len(dcostss),
        acc=sum(accs) / len(accs),
    )
    return CellRow(
        dataset=dataset,
        setting=setting,
        config=config_name,
        measured=avg,
        paper=PAPER[dataset][config_name][setting],
        n_instances=n_instances,
    )


def run_table2(
    spark: SparkSession,
    *,
    datasets: list[str] | None = None,
    settings: list[tuple[float, float]] | None = None,
    configs: list[str] | None = None,
    n_instances: int = 1,
    seed: int = 0,
    parallelism: int = 6,
) -> list[CellRow]:
    """Run (a subset of) the Table 2 grid, cells in parallel driver threads."""
    datasets = datasets or list(DATASETS)
    settings = settings or SETTINGS
    configs = configs or CONFIG_NAMES
    cells = [
        (ds, st, cf) for ds in datasets for st in settings for cf in configs
    ]
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        futures = [
            pool.submit(
                run_cell, spark, ds, st, cf, n_instances=n_instances, seed=seed
            )
            for ds, st, cf in cells
        ]
        return [f.result() for f in futures]


def format_rows(rows: list[CellRow], *, markdown: bool = False) -> str:
    """Render paper-vs-measured, one line per cell, grouped like Table 2."""
    out = []
    header = (
        f"{'dataset':<12} {'eta/tau':<8} {'cfg':<4} "
        f"{'t[s]':>8} {'t_paper':>8} {'Δcore':>6} {'paper':>6} "
        f"{'Δcosts':>7} {'paper':>6} {'acc':>5} {'paper':>6}"
    )
    sep = "-" * len(header)
    if markdown:
        out.append(
            "| dataset | eta/tau | cfg | t[s] | t paper | Δcore | paper "
            "| Δcosts | paper | acc | paper |"
        )
        out.append("|---|---|---|---|---|---|---|---|---|---|---|")
    else:
        out.append(header)
        out.append(sep)
    for r in sorted(rows, key=lambda r: (list(DATASETS).index(r.dataset), r.setting, r.config)):
        pt, pc, pco, pa = r.paper
        m = r.measured
        if markdown:
            out.append(
                f"| {r.dataset} | {r.setting[0]:.1f} | {r.config} "
                f"| {m.t:.2f} | {pt:.2f} | {m.dcore:.2f} | {pc:.2f} "
                f"| {m.dcosts:.2f} | {pco:.2f} | {m.acc:.2f} | {pa:.2f} |"
            )
        else:
            out.append(
                f"{r.dataset:<12} {r.setting[0]:.1f}/{r.setting[1]:.1f}  {r.config:<4} "
                f"{m.t:>8.2f} {pt:>8.2f} {m.dcore:>6.2f} {pc:>6.2f} "
                f"{m.dcosts:>7.2f} {pco:>6.2f} {m.acc:>5.2f} {pa:>6.2f}"
            )
    return "\n".join(out)
