"""Table 2 harness: paper-number bookkeeping, cell execution, rendering."""
import pytest

from repro.bench.datasets import DATASETS
from repro.bench.table2 import (
    CONFIG_NAMES,
    PAPER,
    SETTINGS,
    format_rows,
    make_config,
    run_cell,
    scaled_block_threshold,
)


def test_paper_table_complete():
    assert set(PAPER) == set(DATASETS)
    for ds, by_cfg in PAPER.items():
        assert set(by_cfg) == set(CONFIG_NAMES)
        for cfg, by_setting in by_cfg.items():
            assert set(by_setting) == set(SETTINGS)
            for cell in by_setting.values():
                assert len(cell) == 4
                t, dcore, dcosts, acc = cell
                assert t > 0 and dcore >= 0 and dcosts > 0 and 0 <= acc <= 1


def test_paper_spotchecks():
    """A few literal values from the printed table."""
    assert PAPER["chess"]["Hs"][(0.3, 0.3)] == (2.83, 0.0, 2.11, 0.43)
    assert PAPER["uniprot"]["Hid"][(0.3, 0.3)] == (49.52, 1.0, 1.01, 1.0)
    assert PAPER["fd-red-30"]["Hid"][(0.5, 0.5)] == (342.02, 1.0, 1.0, 1.0)


def test_make_config_matches_paper_settings():
    hs = make_config("Hs", "iris", seed=1)
    assert (hs.start, hs.beta, hs.queue_width) == ("overlap", 1, 1)
    hid = make_config("Hid", "iris", seed=1)
    assert (hid.start, hid.beta, hid.queue_width) == ("id", 2, 5)
    assert hs.alpha == hid.alpha == 0.5
    assert hs.theta == hid.theta == 0.1
    assert hs.confidence == hid.confidence == 0.95
    with pytest.raises(ValueError):
        make_config("nope", "iris", seed=1)


def test_scaled_block_threshold():
    # unscaled datasets keep the paper's 100000
    assert scaled_block_threshold("iris") == 100_000
    # chess: 28056 -> 3000 rows scales quadratically
    assert scaled_block_threshold("chess") == round(100_000 * (3000 / 28056) ** 2)
    assert scaled_block_threshold("chess") < 2000


def test_run_cell_smoke(spark):
    row = run_cell(
        spark, "iris", (0.3, 0.3), "Hs", n_instances=1, seed=5, n_rows=120
    )
    assert row.dataset == "iris" and row.config == "Hs"
    assert row.measured.t > 0
    assert 0 <= row.measured.acc <= 1
    assert row.paper == PAPER["iris"]["Hs"][(0.3, 0.3)]
    text = format_rows([row])
    assert "iris" in text and "Hs" in text
    md = format_rows([row], markdown=True)
    assert md.startswith("| dataset")


def test_run_cell_releases_cached_frames(spark):
    """run_cell leaves Spark's cache manager as it found it (empty)."""
    spark.catalog.clearCache()
    run_cell(spark, "iris", (0.3, 0.3), "Hs", n_instances=1, seed=5, n_rows=120)
    assert spark._jsparkSession.sharedState().cacheManager().isEmpty()
