"""Seeded fold draws: ``build.random_admissible`` counts the admissible
bijections of each candidate facet pair and builds only the drawn one.

The reference is the list-then-draw choice in ``reference.py``.  Both
must return the same triple and leave the random stream in the same
state, on every fold step of the random build scripts and of the
corpus recipes.  The draw index counts triples in search order, so the
order of the star search at a fixed face is checked against the
unfixed search as well.  The live-pair walk behind every draw must
give the list of the all-pairs walk in ``reference.py`` on each star,
and each table shape it counts must stand for its table.
"""

import copy
import itertools
import random
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psf.buildscript
from psf.build import (
    SplitMix64,
    _count_matchings,
    _star_counts,
    check_edge_fold_admissible,
    facet_subdivision,
    find_edge_folds,
    find_vertex_folds,
    random_admissible,
)
from psf.buildscript import EDGE_ARM, ScriptBuilder, random_script
from psf.complexes import FaceNotPresent
from psf.corpus import (
    cone_point_base_3d,
    edge_folded_instance,
    linear_chain,
    singular_base_3d,
    suspension_instance,
    vertex_folded_instance,
)
from reference import listing_draw, oracle_folds, star_counts_reference

# -- the matching counter ------------------------------------------------


def _brute_count(table):
    n = len(table)
    return sum(all(table[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def _mask_rows(table, columns=None):
    """The bitmask rows of a 0/1 table: column j is bit ``columns[j]``,
    by default bit j."""
    columns = columns or range(len(table))
    return [sum(1 << c for c, ok in zip(columns, row) if ok) for row in table]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.one_of(st.none(), st.integers(0, 4)))
def test_count_matchings_matches_brute_force(table, empty):
    if empty is not None and table:
        table[empty % len(table)] = [False] * len(table)
    assert _count_matchings(_mask_rows(table)) == _brute_count(table)
    # a column is any one bit, as in the rows of a fixed face's partner table
    spread = [3 * j + 1 for j in range(len(table))]
    assert _count_matchings(_mask_rows(table, spread)) == _brute_count(table)


def _table_of(shape):
    """The table a shape of ``_star_counts`` stands for: the rows of f1
    over the columns of f2, as booleans."""
    columns = shape if isinstance(shape[0], tuple) else (shape,)
    return [[ok == "1" for ok in row] for row in zip(*columns)]


def _shape(table, width, rng):
    """The shape ``_star_counts`` gives a table: each row becomes a
    verdict string over a link of ``width`` vertices, the table's columns
    at random link positions and the other verdicts random, and the
    shape is read off the transposed strings at the columns' positions."""
    columns = rng.sample(range(width), len(table))
    rows = []
    for row in table:
        verdicts = [rng.choice("01") for _ in range(width)]
        for c, ok in zip(columns, row):
            verdicts[c] = "1" if ok else "0"
        rows.append("".join(verdicts))
    return itemgetter(*columns)(list(zip(*rows)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(0, 12), st.randoms(use_true_random=False))
def test_shape_key_stands_for_its_table(table, spare, rng):
    shape = _shape(table, len(table) + spare, rng)
    assert _table_of(shape) == table
    assert _count_matchings(_mask_rows(_table_of(shape))) == _brute_count(table)
    # the link's numbering and its other verdicts do not change the shape
    assert _shape(table, len(table) + 12, random.Random(rng.random())) == shape
    shuffled = rng.sample(table, len(table))
    assert _count_matchings(_mask_rows(_table_of(_shape(shuffled, 2 * len(table), rng)))) == \
        _brute_count(table)


def test_shape_table_stays_within_its_bound(monkeypatch):
    """The bound stated at ``_SHAPE_COUNTS``, for complexes of dimension
    at most 4, after the fold draws of many scripts and of a 24-fold
    instance; each stored count is that of its shape's table."""
    monkeypatch.setattr(psf.build, "_SHAPE_COUNTS", {})
    for seed in range(200):
        random_script(seed)
    vertex_folded_instance(3, folds=24)
    shapes = psf.build._SHAPE_COUNTS
    assert 0 < len(shapes) <= sum((2 ** n - 1) ** n for n in range(1, 5))
    for shape, n in shapes.items():
        table = _table_of(shape)
        assert 1 <= len(table) <= 4 and all(any(row) for row in table)
        assert n == _brute_count(table)


@pytest.mark.parametrize("table,count", [
    ([], 1),
    ([[True] * 4] * 4, 24),
    ([[True] * 5] * 5, 120),
    ([[True, True, True], [False, False, False], [True, True, True]], 0),
    ([[False]], 0),
    ([[True, False], [True, False]], 0),
    ([[True, True], [True, False]], 1),
    ([[False, False, False], [True, True, True], [True, True, True]], 0),
    ([[True] * 4] * 3 + [[False] * 4], 0),
])
def test_count_matchings_edge_cases(table, count):
    assert _count_matchings(_mask_rows(table)) == count == _brute_count(table)


# -- draws against the listing reference ---------------------------------


@pytest.fixture
def checked_draws(monkeypatch):
    """Route every seeded draw of the builder through a check against
    ``listing_draw``; the list records ``(kind, fixed, avoid)`` per fold."""
    calls = []

    def draw(kind, k, rng, fixed=(), avoid=None):
        if kind == "handle":
            return random_admissible(kind, k, rng, fixed, avoid)
        twin = copy.copy(rng)
        expected = listing_draw(kind, k, twin, fixed, avoid)
        found = random_admissible(kind, k, rng, fixed, avoid)
        assert found == expected
        if found is not None:
            assert list(found[2].items()) == list(expected[2].items())
        assert copy.copy(rng).next64() == copy.copy(twin).next64()
        calls.append((kind, tuple(fixed), avoid))
        return found

    monkeypatch.setattr(psf.buildscript, "random_admissible", draw)
    return calls


def test_script_fold_draws_match_listing(checked_draws):
    for seed in range(200):
        random_script(seed)
    kinds = {kind for kind, _, _ in checked_draws}
    assert kinds == {"vertex_fold", "edge_fold"}
    assert len(checked_draws) >= 60


def test_corpus_fold_draws_match_listing(checked_draws):
    for seed in range(30):
        vertex_folded_instance(seed, folds=2 if seed < 10 else 1)
        edge_folded_instance(seed, edge_folds=1, vertex_folds=1)
        singular_base_3d(seed, folds=2)
        cone_point_base_3d(seed)
        suspension_instance(seed, extra_vertex_folds=1)
    assert any(avoid is not None for _, _, avoid in checked_draws)
    assert {kind for kind, _, _ in checked_draws} == {"vertex_fold", "edge_fold"}
    assert len(checked_draws) >= 30 * 7


@pytest.mark.parametrize("make", [
    lambda: vertex_folded_instance(5, folds=6),
    lambda: edge_folded_instance(5, edge_folds=6),
    lambda: edge_folded_instance(5, edge_folds=3, vertex_folds=3),
], ids=["vertex_folds=6", "edge_folds=6", "edge_folds=3+vertex_folds=3"])
def test_many_fold_draws_match_listing(checked_draws, make):
    """Each fold at a face grows its star, so later draws see stars of
    every size up to that of six folds."""
    make()
    assert len(checked_draws) == 6


@pytest.fixture
def checked_stars(monkeypatch):
    """Route every star walk of the fold searches and draws through a
    check against ``star_counts_reference``, the all-pairs walk; the list
    records ``(face, avoid)`` per star."""
    stars = []

    def walk(k, face, avoid):
        found = _star_counts(k, face, avoid)
        assert found == star_counts_reference(k, face, avoid)
        stars.append((tuple(sorted(face)), avoid))
        return found

    monkeypatch.setattr(psf.build, "_star_counts", walk)
    return stars


def test_live_pair_walk_matches_all_pairs_walk_on_corpus_draws(checked_stars):
    for seed in range(1, 16):
        vertex_folded_instance(seed, folds=2)
        edge_folded_instance(seed, edge_folds=1, vertex_folds=1)
        suspension_instance(seed, extra_vertex_folds=1)
    assert {len(face) for face, _ in checked_stars} == {1, 2}
    assert any(avoid is not None for _, avoid in checked_stars)
    assert len(checked_stars) == 15 * 6


def test_live_pair_walk_matches_all_pairs_walk_on_unfixed_groups(checked_stars):
    k = linear_chain(4, 8, 3, fixed=(0, 1))
    list(find_vertex_folds(k))
    assert list(find_edge_folds(k))
    assert len(checked_stars) == len(k.vertices) + len(k.faces(1))


def test_unfixed_draw_matches_listing():
    k = linear_chain(4, 8, 3, fixed=(0, 1))
    for kind in ("vertex_fold", "edge_fold"):
        for seed in range(5):
            rng, twin = SplitMix64(seed), SplitMix64(seed)
            assert random_admissible(kind, k, rng) == listing_draw(kind, k, twin)
            assert rng.next64() == twin.next64()


def _two_edge_arms():
    """Edge arms along 01 and along 02: the pairs meeting in the edges 01
    and 02 both belong to vertex 0's group, and interleave there."""
    b = ScriptBuilder(SplitMix64(1), 5)
    b.arm((0, 1), EDGE_ARM)
    b.arm((0, 2), EDGE_ARM, b.pick((0, 2), 1))
    return b.current


def test_unfixed_edge_search_merges_the_edges_of_a_group():
    k = _two_edge_arms()
    found = [(f1, f2, list(m.items())) for f1, f2, m in find_edge_folds(k)]
    expected = [(f1, f2, list(m.items()))
                for f1, f2, m in oracle_folds(k, 2, None, check_edge_fold_admissible)]
    assert found == expected
    # listed edge by edge, vertex 0's pairs would come in another order
    edges = [tuple(sorted(set(f1) & set(f2))) for f1, f2, _ in found]
    runs = [e for e, _ in itertools.groupby(edges)]
    assert {(0, 1), (0, 2)} <= set(runs) and len(runs) > len(set(runs))
    for seed in range(20):
        rng, twin = SplitMix64(seed), SplitMix64(seed)
        drawn, expected = random_admissible("edge_fold", k, rng), listing_draw("edge_fold", k, twin)
        assert drawn is not None and drawn == expected
        assert list(drawn[2].items()) == list(expected[2].items())
        assert rng.next64() == twin.next64()


def test_no_admissible_fold_draws_nothing():
    k = linear_chain(4, 2, 1, fixed=(0,))
    rng, twin = SplitMix64(4), SplitMix64(4)
    assert random_admissible("vertex_fold", k, rng, (0,)) is None
    assert rng.next64() == twin.next64()


# -- fixed faces of the wrong size ---------------------------------------


@pytest.mark.parametrize("kind,fixed", [
    ("vertex_fold", (0, 1)),
    ("edge_fold", (0,)),
    ("edge_fold", (0, 0)),
    ("edge_fold", (0, 1, 2)),
    ("edge_fold", (99, 99)),
])
def test_wrong_size_fixed_face_is_refused(kind, fixed):
    k = linear_chain(4, 10, 3, fixed=(0, 1))
    rng, twin = SplitMix64(1), SplitMix64(1)
    with pytest.raises(ValueError, match="distinct"):
        random_admissible(kind, k, rng, fixed)
    assert rng.next64() == twin.next64()
    # the searches share the check; the chain has folds at the edge 01
    if kind == "edge_fold":
        assert next(find_edge_folds(k, (0, 1)), None) is not None
        with pytest.raises(ValueError, match="distinct"):
            next(find_edge_folds(k, fixed))


@pytest.mark.parametrize("fixed,avoid", [((999,), None), ((0,), None), ((0, 1), None), ((), 0)])
def test_handle_draw_refuses_a_fixed_face_or_avoided_vertex(fixed, avoid):
    k = linear_chain(4, 13, 1)
    rng, twin = SplitMix64(1), SplitMix64(1)
    with pytest.raises(ValueError, match="a handle draw takes no fixed face and no avoided vertex"):
        random_admissible("handle", k, rng, fixed, avoid)
    assert rng.next64() == twin.next64()
    assert random_admissible("handle", k, SplitMix64(1)) is not None


@pytest.mark.parametrize("kind,fixed,face", [
    ("vertex_fold", (99,), "(99,)"),
    ("edge_fold", (0, 99), "(0, 99)"),
    ("edge_fold", (99, 0), "(0, 99)"),
    ("edge_fold", (2, 8), "(2, 8)"),
])
def test_absent_fixed_face_is_refused(kind, fixed, face):
    k = linear_chain(4, 10, 3, fixed=(0, 1))
    assert not k.has_face(fixed)
    rng, twin = SplitMix64(1), SplitMix64(1)
    message = re.escape(f"{face} is not a face")
    with pytest.raises(FaceNotPresent, match=message):
        random_admissible(kind, k, rng, fixed)
    with pytest.raises(FaceNotPresent, match=message):
        random_admissible(kind, k, rng, fixed, avoid=fixed[0])
    assert rng.next64() == twin.next64()
    with pytest.raises(FaceNotPresent, match=message):
        if kind == "vertex_fold":
            next(find_vertex_folds(k, fixed[0]))
        else:
            next(find_edge_folds(k, fixed))


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown kind"):
        random_admissible("twist", linear_chain(4, 3, 1), SplitMix64(1))


# -- the star search keeps the order of the unfixed search ----------------


def _first_group(k, face):
    """The vertex of ``face`` whose group ``reference.facet_pairs_sharing``
    visits first: the group that lists the pairs meeting in ``face``."""
    order = list(dict.fromkeys(v for f in k.facets for v in f))
    return min(face, key=order.index)


def _assert_star_order(k, vertices, edges):
    unfixed_v = list(find_vertex_folds(k))
    unfixed_e = list(find_edge_folds(k))
    for x in vertices:
        expected = [t for t in unfixed_v if set(t[0]) & set(t[1]) == {x}]
        assert list(find_vertex_folds(k, fixed_vertex=x)) == expected
    for u, v in edges:
        expected = [t for t in unfixed_e if set(t[0]) & set(t[1]) == {u, v}]
        assert list(find_edge_folds(k, fixed_edge=(u, v))) == expected
        assert list(find_edge_folds(k, fixed_edge=(v, u))) == expected


@pytest.mark.parametrize("make,vertices,edges", [
    (lambda: linear_chain(4, 10, 3, fixed=(0,)), (0, 1, 5, 8), ((0, 1), (0, 5))),
    (lambda: linear_chain(4, 9, 5, fixed=(0, 1)), (0, 1), ((0, 1), (0, 2), (1, 9))),
    (lambda: vertex_folded_instance(21, folds=2).complex, (0, 3, 10), ((0, 3),)),
    (lambda: edge_folded_instance(22, edge_folds=1, vertex_folds=1).complex, (0, 1),
     ((0, 1), (1, 4))),
])
def test_fixed_search_is_filtered_unfixed_search(make, vertices, edges):
    k = make()
    assert all(k.has_face((x,)) for x in vertices)
    assert all(k.has_face(e) for e in edges)
    _assert_star_order(k, vertices, edges)


def test_fixed_edge_search_when_larger_vertex_group_comes_first():
    chain = facet_subdivision(linear_chain(4, 9, 5, fixed=(0, 1)), (1, 2, 3, 4, 5))
    # the new facet (0, 1, 2, 3, 201) comes first: 201 is seen before 200
    labels = {v: v + 100 for v in chain.vertices}
    labels.update({2: 0, 3: 1, 4: 2, max(chain.vertices): 3, 0: 200, 1: 201})
    k = chain.relabel(labels)
    edge = (200, 201)
    assert _first_group(k, edge) == 201
    assert list(find_edge_folds(k, fixed_edge=edge))
    _assert_star_order(k, edge, [edge])
