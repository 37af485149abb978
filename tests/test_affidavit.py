"""End-to-end searches (Algorithm 1) on the paper's running example and on
controlled miniature instances."""
import pytest

from repro.bench.running_example import (
    E1_CORE_SIZE,
    E1_COST,
    E1_INSERTED,
    running_example_problem,
)
from repro.core import AffidavitConfig, run_affidavit
from repro.core.affidavit import _Search
from repro.core.functions import (
    ConstantValue,
    Identity,
    PrefixReplacement,
    Scale,
    Uppercasing,
    ValueMapping,
)

from .util import make_problem


@pytest.fixture(scope="module")
def i1(spark):
    return running_example_problem(spark)


@pytest.fixture(scope="module")
def i1_result(i1):
    """The flagship run: H^id configuration of §5.2 on Figure 1's I1."""
    return run_affidavit(
        i1, AffidavitConfig(start="id", beta=2, queue_width=5, seed=1)
    )


def test_running_example_matches_e1_cost(i1_result):
    expl, _ = i1_result
    assert expl.cost(0.5) <= E1_COST
    assert expl.core_size == E1_CORE_SIZE
    assert expl.n_inserted == E1_INSERTED


def test_running_example_learns_paper_functions(i1, i1_result):
    expl, _ = i1_result
    by_attr = dict(zip(i1.attrs, expl.functions))
    assert by_attr["Val"] == Scale(1.0 / 1000)
    assert by_attr["Unit"] == ConstantValue("k $")
    assert by_attr["Date"] == PrefixReplacement("9999123", "2018070")
    assert by_attr["Type"] == Identity()
    assert by_attr["Org"] == Identity()
    assert isinstance(by_attr["ID1"], ValueMapping)
    assert isinstance(by_attr["ID2"], ValueMapping)


def test_running_example_diagnostics(i1_result):
    _, diag = i1_result
    assert diag.end_state is not None and diag.end_state.is_end
    assert diag.polls >= 1
    assert diag.start_states == 7  # one per attribute for H^id
    # the driver-memory bound: (|S| + |T|) x |undecided| histogram rows
    assert 0 < max(diag.hist_rows) <= (17 + 16) * 7


def _cache_is_empty(spark) -> bool:
    return spark._jsparkSession.sharedState().cacheManager().isEmpty()


def test_running_example_conversion_agrees_with_end_state(spark, i1_result):
    """Prop. 3.6 and Def. 4.6 agree: an end state's M(H) is its core size.
    The search leaves nothing cached."""
    expl, diag = i1_result
    assert expl.core_size == diag.end_state.overlap
    assert _cache_is_empty(spark)


def _jobs_in_group(sc, group: str) -> int:
    """Jobs submitted under ``group``, once the listener bus has delivered
    every job event."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_extensions_job_budget(spark, i1):
    """One poll that does not finalize is one histogram: at most 3 jobs."""
    search = _Search(i1, AffidavitConfig(start="id", beta=2, queue_width=5, seed=1))
    h = min(search.init_start_states(), key=lambda st: st.cost)
    sc = spark.sparkContext
    group = "test-extensions-job-budget"
    sc.setJobGroup(group, "one extensions() call")
    try:
        exts = search.extensions(h)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert exts and search.diag.finalized == 0
    assert 1 <= _jobs_in_group(sc, group) <= 3


def test_fig1_hs_end_state_independent_of_shuffle_partitions(spark, i1):
    cfg = AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=1)
    old = spark.conf.get("spark.sql.shuffle.partitions")
    ends = []
    try:
        for n in (1, 8, 64):
            spark.conf.set("spark.sql.shuffle.partitions", str(n))
            expl, diag = run_affidavit(i1, cfg)
            assert expl.core_size == diag.end_state.overlap
            assert _cache_is_empty(spark)
            ends.append((diag.end_state.assignments, diag.end_state.cost))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)
    assert ends[0] == ends[1] == ends[2]


def test_max_polls_exhausted_returns_trivial_explanation(i1):
    """With no end state polled within ``max_polls`` the search falls back
    to the trivial explanation (|A|*|T| at alpha 0.5) and ``end_state``
    stays None."""
    cfg = AffidavitConfig(start="id", beta=2, queue_width=5, seed=1, max_polls=1)
    expl, diag = run_affidavit(i1, cfg)
    assert diag.polls == 1 and diag.end_state is None
    assert expl.core_size == 0 and expl.core_pairs is None
    assert expl.cost(0.5) == i1.n_attrs * i1.n_target == 112


def test_identical_snapshots_identity_solution(spark):
    rows = [(f"k{i}", f"v{i % 3}") for i in range(12)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0))
    assert expl.core_size == 12
    assert expl.n_inserted == 0
    assert all(isinstance(f, Identity) for f in expl.functions)
    assert expl.cost(0.5) == 0.0


def test_single_transformed_attribute(spark):
    src = [(f"k{i:02d}", f"name{i % 4}", "usd") for i in range(16)]
    tgt = [(f"k{i:02d}", f"name{i % 4}", "USD") for i in range(16)]
    p = make_problem(spark, ["k", "n", "u"], src, tgt)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=2, seed=2))
    assert expl.core_size == 16
    by_attr = dict(zip(p.attrs, expl.functions))
    assert by_attr["u"] in (Uppercasing(), ConstantValue("USD"))
    assert expl.cost(0.5) <= 2  # at most one constant parameter


def test_insertions_and_deletions_detected(spark):
    src = [(f"k{i:02d}", f"v{i % 3}") for i in range(10)]
    tgt = [(f"k{i:02d}", f"v{i % 3}") for i in range(8)] + [("new1", "x"), ("new2", "y")]
    del src[0]  # k00 deleted; k08, k09 deleted; new1/new2 inserted
    p = make_problem(spark, ["k", "v"], src, tgt)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0))
    assert expl.core_size == 7  # k01..k07
    assert expl.n_inserted == 3  # new1, new2, and k00's target? no: k00 not in src
    # src: k01..k09 (9 records); tgt: k00..k07 + new1 + new2 (10 records)
    # overlap on identity: k01..k07 -> 7; deleted: k08, k09; inserted: k00, new1, new2
    assert expl.n_deleted == 2


def test_overlap_start_runs(spark):
    # pk permuted by i -> 7i mod 15 (a bijection no cheap function fits, so
    # the optimal explanation needs a value mapping for it: cost 2*15 = 30,
    # cheaper than losing core records).
    src = [(f"k{i}", f"v{i % 3}", str(i)) for i in range(15)]
    tgt = [(f"k{i}", f"v{i % 3}", str((i * 7) % 15)) for i in range(15)]
    p = make_problem(spark, ["k", "v", "pk"], src, tgt)
    expl, diag = run_affidavit(
        p, AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=0)
    )
    assert expl.core_size == 15
    assert isinstance(dict(zip(p.attrs, expl.functions))["pk"], ValueMapping)
    assert diag.start_states == 1


def test_empty_start_runs(spark):
    rows = [(f"k{i}", "c") for i in range(8)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    expl, _ = run_affidavit(p, AffidavitConfig(start="empty", beta=1, queue_width=2, seed=0))
    assert expl.core_size == 8


def test_unknown_start_raises(spark):
    rows = [("a", "b")]
    p = make_problem(spark, ["x", "y"], rows, rows)
    with pytest.raises(ValueError):
        run_affidavit(p, AffidavitConfig(start="bogus"))
