import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psf import Complex, f_vector, g2, g3, is_isomorphic
from psf.build import (
    FacetsShareVertices,
    InadmissibleFold,
    SplitMix64,
    boundary_simplex,
    check_edge_fold_admissible,
    check_vertex_fold_admissible,
    cone,
    connected_sum,
    edge_fold,
    facet_subdivision,
    find_edge_folds,
    find_vertex_folds,
    handle_addition,
    one_vertex_suspension,
    stacked_sphere,
    vertex_fold,
    VertexAlreadyPresent,
)
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    vertex_folded_instance,
)
from psf.verify import is_normal_pseudomanifold


def test_boundary_simplex_values():
    assert f_vector(boundary_simplex(5)).entries == (1, 6, 15, 20, 15, 6)
    assert boundary_simplex(2) == Complex([[0, 1], [1, 2], [0, 2]])
    assert g2(boundary_simplex(4)) == 0
    assert g2(boundary_simplex(5)) == 0
    with pytest.raises(Exception):
        boundary_simplex(0)


def test_cone():
    b3 = boundary_simplex(3)
    c = cone(4, b3)
    assert c.link((4,)) == b3
    assert f_vector(c).f(0) == f_vector(b3).f(0) + 1
    assert c == boundary_simplex(4).star((4,))
    with pytest.raises(VertexAlreadyPresent):
        cone(0, b3)


def test_one_vertex_suspension_of_circle_is_2_sphere():
    s = one_vertex_suspension(boundary_simplex(2), 0)
    assert is_isomorphic(s, boundary_simplex(3)) is not None


def test_one_vertex_suspension_of_boundary_4_simplex():
    s = one_vertex_suspension(boundary_simplex(4), 0)
    assert is_isomorphic(s, boundary_simplex(5)) is not None


def test_suspension_f_identities_at_cone_point():
    base = linear_chain(3, 4, 77, fixed=(0,))
    susp = one_vertex_suspension(base, 0)
    fb, fs = f_vector(base), f_vector(susp)
    star_edges = len(base.star((0,)).faces(1))
    assert fs.f(0) == fb.f(0) + 1
    assert fs.f(1) == fb.f(1) + fb.f(0)
    assert fs.f(2) == fb.f(2) + 2 * fb.f(1) - star_edges


def test_connected_sum_g_additive():
    rng = SplitMix64(4)
    a = stacked_sphere(4, 2, 1)
    b = boundary_simplex(5).relabel({i: i + 100 for i in range(6)})
    mapping = dict(zip(a.facets[0], b.facets[0]))
    s = connected_sum(a, b, mapping)
    assert g2(s) == g2(a) + g2(b)
    assert g3(s) == g3(a) + g3(b)
    assert f_vector(s).f(0) == f_vector(a).f(0) + f_vector(b).f(0) - 5
    assert is_normal_pseudomanifold(s).normal


def test_stacked_sphere_counts_and_determinism():
    for k in (1, 2, 5):
        s = stacked_sphere(4, k, 11)
        assert len(s.vertices) == k + 5
        assert g2(s) == 0
        assert is_normal_pseudomanifold(s).normal
    assert stacked_sphere(4, 4, 7) == stacked_sphere(4, 4, 7)
    assert stacked_sphere(4, 1, 0) == boundary_simplex(5)


def test_vertex_fold_g_law():
    record = vertex_folded_instance(31, folds=1)
    k = record.complex
    assert g2(k) == 10
    assert g3(k) == -10
    assert is_normal_pseudomanifold(k).normal


def test_vertex_fold_admissibility_rejections():
    b5 = boundary_simplex(5)
    f1, f2 = b5.facets[0], b5.facets[1]
    ok, reason = check_vertex_fold_admissible(
        b5, f1, f2, dict(zip(f1, f2))
    )
    assert not ok and "single vertex" in reason

    # adjacent identified vertices in a short chain
    chain = linear_chain(4, 4, 5, fixed=(0,))
    pairs = [
        (fa, fb)
        for fa in chain.facets
        for fb in chain.facets
        if fa < fb and set(fa) & set(fb) == {0}
    ]
    assert pairs
    fa, fb = pairs[0]
    mapping = {0: 0}
    mapping.update(zip([v for v in fa if v != 0], [v for v in fb if v != 0]))
    ok, _ = check_vertex_fold_admissible(chain, fa, fb, mapping)
    assert not ok
    with pytest.raises(InadmissibleFold):
        vertex_fold(chain, fa, fb, mapping)


def test_vertex_fold_found_on_long_chain():
    chain = linear_chain(4, 10, 3, fixed=(0,))
    triples = list(find_vertex_folds(chain, fixed_vertex=0))
    assert triples
    f1, f2, mapping = triples[0]
    folded = vertex_fold(chain, f1, f2, mapping)
    assert g2(folded) == 10 and g3(folded) == -10


def test_vertex_fold_link_gains_handle():
    record = vertex_folded_instance(8, folds=1)
    k = record.complex
    link = k.link((record.tracked,))
    # a 3-dimensional handle adds binom(5,2) = 10 to g2 of the link
    assert g2(link) == 10


def test_edge_fold_g_law():
    record = edge_folded_instance(13, edge_folds=1)
    k = record.complex
    assert g2(k) == 6
    assert g3(k) == -4
    assert is_normal_pseudomanifold(k).normal


def test_edge_fold_admissibility_rejections():
    b5 = boundary_simplex(5)
    f1, f2 = b5.facets[0], b5.facets[1]
    shared = tuple(sorted(set(f1) & set(f2)))
    mapping = {v: v for v in shared}
    ok, reason = check_edge_fold_admissible(b5, f1, f2, dict(zip(f1, f2)))
    assert not ok and "not an edge" in reason

    chain = linear_chain(4, 4, 5, fixed=(0, 1))
    pairs = [
        (fa, fb)
        for fa in chain.facets
        for fb in chain.facets
        if fa < fb and set(fa) & set(fb) == {0, 1}
    ]
    assert pairs
    fa, fb = pairs[0]
    mapping = {0: 0, 1: 1}
    mapping.update(zip([v for v in fa if v > 1], [v for v in fb if v > 1]))
    ok, _ = check_edge_fold_admissible(chain, fa, fb, mapping)
    assert not ok


def test_edge_fold_found_on_long_chain():
    chain = linear_chain(4, 9, 5, fixed=(0, 1))
    triples = list(find_edge_folds(chain, fixed_edge=(0, 1)))
    assert triples
    f1, f2, mapping = triples[0]
    folded = edge_fold(chain, f1, f2, mapping)
    assert g2(folded) == 6 and g3(folded) == -4


def test_handle_addition_g_law():
    record = handle_instance(23)
    k = record.complex
    assert g2(k) == 15
    assert g3(k) == -20
    assert is_normal_pseudomanifold(k).normal


def test_handle_on_boundary_simplex_rejected():
    b5 = boundary_simplex(5)
    with pytest.raises(FacetsShareVertices):
        handle_addition(b5, b5.facets[0], b5.facets[1], dict(zip(b5.facets[0], b5.facets[1])))


def test_facet_subdivision():
    b5 = boundary_simplex(5)
    facet = b5.facets[0]
    sub = facet_subdivision(b5, facet)
    new_vertex = max(sub.vertices)
    assert len(sub.vertices) == 7
    assert g2(sub) == 0 and g3(sub) == 0
    assert sub.link((new_vertex,)) == Complex(
        [tuple(v for v in facet if v != w) for w in facet]
    )


def test_g2_counts_folds_6m_plus_10n():
    for seed, m, n in ((3, 1, 0), (4, 1, 1), (5, 2, 0)):
        record = edge_folded_instance(seed, edge_folds=m, vertex_folds=n)
        assert g2(record.complex) == 6 * m + 10 * n


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_fold_laws_on_seeded_instances(seed):
    record = vertex_folded_instance(seed % 1000, folds=1, sums=seed % 3)
    assert g2(record.complex) == 10
    assert g3(record.complex) == -10
