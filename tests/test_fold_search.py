"""Reference tests for the fold-search kernel.

The searches take their facet pairs from the stars of the faces, table
the per-pair condition once per facet pair and filter the bijections
through that table.  The oracles, ``oracle_folds`` and
``oracle_handles`` in ``reference.py``, are the plain per-bijection
search: every candidate facet pair in ``facet_pairs_sharing`` order,
every ``itertools.permutations`` bijection, each one run through the
full ``check_*_admissible``.  Both must yield the same triples in the
same order, and seeded handle searches must consume the same random
draws.

A second oracle restates the three admissibility conditions literally
(common neighbours of a vertex-fold pair equal to {x}, inside {u, v} for
an edge fold, empty for a handle) and checks the verdicts of the
library's checks over every bijection of sampled facet pairs.
"""

import itertools

import pytest

from psf.build import (
    FacetsShareVertices,
    SplitMix64,
    check_edge_fold_admissible,
    check_handle_admissible,
    check_vertex_fold_admissible,
    find_edge_folds,
    find_handles,
    find_vertex_folds,
)
from psf.corpus import edge_folded_instance, linear_chain, vertex_folded_instance
from reference import facet_pairs_sharing, oracle_folds, oracle_handles


def _same(found, expected):
    found, expected = list(found), list(expected)
    assert found == expected
    # dict equality ignores order; the pairs themselves must match too
    assert [sorted(m.items()) for _, _, m in found] == [sorted(m.items()) for _, _, m in expected]
    return found


@pytest.mark.parametrize("d,seed", [(4, 3), (4, 8), (3, 2)])
def test_vertex_fold_search_matches_oracle(d, seed):
    k = linear_chain(d, 10 if d == 4 else 8, seed, fixed=(0,))
    assert _same(find_vertex_folds(k), oracle_folds(k, 1, None, check_vertex_fold_admissible))
    assert _same(find_vertex_folds(k, fixed_vertex=0),
                 oracle_folds(k, 1, (0,), check_vertex_fold_admissible))


@pytest.mark.parametrize("seed", [5, 6])
def test_edge_fold_search_matches_oracle(seed):
    k = linear_chain(4, 9, seed, fixed=(0, 1))
    assert _same(find_edge_folds(k), oracle_folds(k, 2, None, check_edge_fold_admissible))
    assert _same(find_edge_folds(k, fixed_edge=(0, 1)),
                 oracle_folds(k, 2, (0, 1), check_edge_fold_admissible))
    reversed_edge = list(find_edge_folds(k, fixed_edge=(1, 0)))
    assert reversed_edge == list(find_edge_folds(k, fixed_edge=(0, 1)))


def test_handle_search_matches_oracle_scan():
    k = linear_chain(4, 13, 7)
    assert _same(find_handles(k), oracle_handles(k))


@pytest.mark.parametrize("seed", [7, 11, 12])
def test_handle_search_matches_oracle_seeded(seed):
    k = linear_chain(4, 12, seed)
    rng_a, rng_b = SplitMix64(seed), SplitMix64(seed)
    assert _same(find_handles(k, rng=rng_a), oracle_handles(k, rng=rng_b))
    # both searches drew exactly the same numbers
    assert rng_a.next64() == rng_b.next64()


def test_facet_pairs_sharing_covers_every_pair():
    k = vertex_folded_instance(4).complex
    for count in (1, 2, 3, 4):
        expected = {
            (f1, f2)
            for f1, f2 in itertools.combinations(k.facets, 2)
            if len(set(f1) & set(f2)) == count
        }
        found = list(facet_pairs_sharing(k, count))
        assert len(found) == len(set(found)) and set(found) == expected


# -- literal restatements of the three conditions -------------------------


def _bijective(f1, f2, m):
    return sorted(m) == list(f1) and sorted(set(m.values())) == list(f2)


def _literal_vertex_fold_ok(k, f1, f2, m):
    shared = set(f1) & set(f2)
    if len(shared) != 1:
        return False
    (x,) = shared
    if m.get(x) != x or not _bijective(f1, f2, m):
        return False
    return all(
        m[y] not in k.neighbors(y) and k.neighbors(y) & k.neighbors(m[y]) == {x}
        for y in f1
        if y != x
    )


def _literal_edge_fold_ok(k, f1, f2, m):
    shared = set(f1) & set(f2)
    if len(shared) != 2:
        return False
    u, v = sorted(shared)
    if not k.has_face((u, v)) or m.get(u) != u or m.get(v) != v or not _bijective(f1, f2, m):
        return False
    return all(
        m[y] not in k.neighbors(y) and k.neighbors(y) & k.neighbors(m[y]) <= {u, v}
        for y in f1
        if y not in (u, v)
    )


def _literal_handle_ok(k, f1, f2, m):
    if not _bijective(f1, f2, m):
        return False
    if any(m[w] in k.neighbors(v) for v in f1 for w in f1):
        return False
    return not any(k.neighbors(v) & k.neighbors(m[v]) for v in f1)


def _sampled_pairs(k, rng, per_size):
    """Facet pairs sharing 0 to 3 vertices, ``per_size`` of each when present."""
    by_size = {}
    for f1, f2 in itertools.combinations(k.facets, 2):
        by_size.setdefault(len(set(f1) & set(f2)), []).append((f1, f2))
    out = []
    for size in range(4):
        pairs = by_size.get(size, [])
        out += [pairs[rng.randrange(len(pairs))] for _ in range(min(per_size, len(pairs)))]
    return out


CASES = {
    "vertex-chain": lambda: linear_chain(4, 10, 3, fixed=(0,)),
    "edge-chain": lambda: linear_chain(4, 9, 5, fixed=(0, 1)),
    "handle-chain": lambda: linear_chain(4, 13, 7),
    "vertex-folded": lambda: vertex_folded_instance(21).complex,
    "edge-folded": lambda: edge_folded_instance(22).complex,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_verdicts_match_literal_conditions(name):
    k = CASES[name]()
    pairs = _sampled_pairs(k, SplitMix64(99), per_size=4)
    # facet pairs that carry admissible bijections, where the complex has any
    for find in (find_vertex_folds, find_edge_folds, find_handles):
        pairs += [(f1, f2) for f1, f2, _ in itertools.islice(find(k), 3)]
    admissible = 0
    for f1, f2 in pairs:
        for perm in itertools.permutations(f2):
            m = dict(zip(f1, perm))
            ok_v = check_vertex_fold_admissible(k, f1, f2, m)[0]
            ok_e = check_edge_fold_admissible(k, f1, f2, m)[0]
            assert ok_v == _literal_vertex_fold_ok(k, f1, f2, m)
            assert ok_e == _literal_edge_fold_ok(k, f1, f2, m)
            if set(f1) & set(f2):
                with pytest.raises(FacetsShareVertices):
                    check_handle_admissible(k, f1, f2, m)
                ok_h = False
            else:
                ok_h = check_handle_admissible(k, f1, f2, m)[0]
                assert ok_h == _literal_handle_ok(k, f1, f2, m)
            admissible += ok_v + ok_e + ok_h
    if name.endswith("chain"):
        assert admissible
