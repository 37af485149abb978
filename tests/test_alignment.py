"""Random block-respecting alignments and greedy value maps (§4.3), drawn
from the collected block histogram."""
import pytest

from repro.core.alignment import greedy_map, greedy_maps_bulk
from repro.core.blocking import block_histogram, with_block_key
from repro.core.functions import Identity, ValueMapping
from repro.core.state import UNDECIDED, SearchState

from .util import make_problem

ATTRS = ["g", "v"]
# blocks by g: block "x" has 3/3 records, block "y" 2/1, block "z" 0/1
SRC = [("x", "a"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "c")]
TGT = [("x", "A"), ("x", "A"), ("x", "B"), ("y", "C"), ("z", "Z")]


def _hist(spark, src, tgt, attrs=("g", "v")):
    """Histogram over ``attrs`` under identity on g."""
    p = make_problem(spark, ATTRS, src, tgt)
    st = SearchState((Identity(), UNDECIDED))
    s = with_block_key(p.source, st, p.attrs, is_source=True)
    t = with_block_key(p.target, st, p.attrs, is_source=False)
    return block_histogram(s, t, list(attrs))


@pytest.fixture(scope="module")
def hist(spark):
    return _hist(spark, SRC, TGT)


def test_alignment_respects_blocks(spark):
    """Each block has one value per side, so any pair across blocks would
    map a source value to the other block's target value."""
    src = [("x", "s1")] * 3 + [("y", "s2")] * 2
    tgt = [("x", "t1")] * 2 + [("y", "t2")] * 3 + [("z", "t3")]
    src_hist, tgt_hist = _hist(spark, src, tgt, ["v"])
    for seed in range(10):
        g = greedy_map(src_hist, tgt_hist, "v", seed=seed)
        assert g.entries == (("s1", "t1"), ("s2", "t2"))


def test_alignment_deterministic_in_seed(hist):
    # a/b against A/A/B pair at random: the map depends on the draw
    maps = {greedy_map(*hist, "v", seed=s) for s in range(20)}
    assert len(maps) > 1
    assert greedy_map(*hist, "v", seed=3) == greedy_map(*hist, "v", seed=3)


def test_greedy_map_argmax_cooccurrence(hist):
    for seed in range(5):
        d = dict(greedy_map(*hist, "v", seed=seed).entries)
        # the two a's meet A at least once; one A and one B is a tie -> 'A'
        assert d["a"] == "A"
        assert d["c"] == "C"


def test_greedy_map_tie_breaks_to_smallest_target(spark):
    src_hist, tgt_hist = _hist(spark, [("x", "a"), ("x", "a")], [("x", "B"), ("x", "A")], ["v"])
    for seed in range(5):
        assert greedy_map(src_hist, tgt_hist, "v", seed=seed).entries == (("a", "A"),)


def test_greedy_maps_bulk_matches_single(hist):
    bulk = greedy_maps_bulk(*hist, ["g", "v"], seed=5)
    assert bulk["g"].entries == (("x", "x"), ("y", "y"))
    assert greedy_maps_bulk(*hist, ["v"], seed=5)["v"] == greedy_map(*hist, "v", seed=5)


def test_greedy_maps_bulk_empty():
    assert greedy_maps_bulk({}, {}, [], seed=0) == {}


def test_greedy_map_convenience(hist):
    g = greedy_map(*hist, "v", seed=11)
    assert isinstance(g, ValueMapping)
    assert dict(g.entries)["a"] == "A"


def test_greedy_map_excludes_nulls(spark):
    src_hist, tgt_hist = _hist(
        spark, [("x", None), ("x", "a")], [("x", "A"), ("x", None)], ["v"]
    )
    for seed in range(5):
        g = greedy_map(src_hist, tgt_hist, "v", seed=seed)
        assert None not in dict(g.entries)
        assert None not in dict(g.entries).values()
