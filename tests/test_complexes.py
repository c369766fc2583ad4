import functools
import importlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psf import (
    Complex,
    DuplicateVertexInFacet,
    FaceNotPresent,
    MixedDimension,
    OutOfRange,
    UnknownVertex,
    VertexOverlap,
    from_facets,
    is_isomorphic,
    join,
)
from psf.build import (
    boundary_simplex,
    cone,
    connected_sum,
    facet_subdivision,
    one_vertex_suspension,
    stacked_sphere,
)
from psf.complexes import ComplexError, _antichain, _colors
from psf.corpus import edge_folded_instance, suspension_instance, vertex_folded_instance
from psf.decompose import MODES, DecompositionError, decompose, inverse_facet_subdivision, rebuild
from psf.fileio import format_complex
from psf.verify import classify_vertices, is_normal_pseudomanifold, is_pseudomanifold
import reference


def triangle_circle():
    return from_facets([[0, 1], [1, 2], [2, 0]])


def test_from_facets_boundary_tetrahedron():
    k = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert k.dim == 2
    assert len(k.maximal_faces) == 4
    assert k == boundary_simplex(3)


def test_from_facets_circle():
    assert triangle_circle().dim == 1


def test_from_facets_mixed_dimension():
    with pytest.raises(MixedDimension):
        from_facets([[0, 1, 2], [0, 1]])


def test_from_facets_duplicate_vertex():
    with pytest.raises(DuplicateVertexInFacet):
        from_facets([[0, 1, 1]])


@pytest.mark.parametrize("rows, error, message", [
    ([], ComplexError, "no facets"),
    ([[0, 1], []], ComplexError, "empty facet"),
    ([[-1, 2], [1, 1]], DuplicateVertexInFacet, "repeated vertex in facet [1, 1]"),
    ([[-1, 2], [1, 2, 3]], MixedDimension, "facet lengths differ: [2, 3]"),
    ([[2, -1], [-3, 4]], ComplexError, "vertex labels must be non-negative, got (-1, 2)"),
    ([[-1, 2], ["a", 1]], ComplexError, "vertex labels must be non-negative, got (-1, 2)"),
    ([[0, 1], ["a", 1]], ComplexError, "expected an integer, got 'a'"),
])
def test_from_facets_refusals_keep_their_order_and_text(rows, error, message):
    # every row is checked for repeats before any length, and lengths
    # before any sorting; rows are sorted and checked for negatives in turn
    with pytest.raises(error) as err:
        from_facets(rows)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("rows, label", [
    ([[0.5, 1, 2], [1, 2, 3]], "0.5"),
    ([[0, 1, 2], [1, 2, 3.0]], "3.0"),
    ([[True, 2, 3], [1, 2, 3]], "True"),
    ([[3, 2, False]], "False"),
    ([["a", "b"]], "'a'"),
    ([[0, 1], [1, "2"]], "'2'"),
])
def test_constructors_refuse_labels_that_are_not_int(rows, label):
    for make in (Complex, from_facets, Complex.from_facets):
        with pytest.raises(ComplexError) as err:
            make(rows)
        assert type(err.value) is ComplexError
        assert str(err.value) == f"expected an integer, got {label}"


def test_new_labels_that_are_not_int_are_refused():
    with pytest.raises(ComplexError, match=r"^expected an integer, got 1\.5$"):
        one_vertex_suspension(boundary_simplex(4), 0, apex=1.5)
    with pytest.raises(ComplexError, match=r"^expected an integer, got 'v'$"):
        cone("v", boundary_simplex(3))


def test_faces_counts():
    b3 = boundary_simplex(3)
    assert len(b3.faces(1)) == 6
    assert len(boundary_simplex(5).faces(2)) == 20
    assert b3.faces(-1) == frozenset({()})
    with pytest.raises(OutOfRange):
        b3.faces(3)


def test_link_vertex_of_boundary_simplex():
    b3 = boundary_simplex(3)
    assert b3.link((0,)) == Complex([[1, 2], [1, 3], [2, 3]])
    b4 = boundary_simplex(4)
    assert b4.link((0, 1)) == Complex([[2, 3], [2, 4], [3, 4]])
    with pytest.raises(FaceNotPresent):
        triangle_circle().link((0, 1, 2))


def test_link_of_suspension_apex_recovers_base():
    base = stacked_sphere(3, 2, 11)
    v = min(base.vertices)
    susp = one_vertex_suspension(base, v)
    apex = max(susp.vertices)
    assert susp.link((apex,)) == base


def test_star():
    b3 = boundary_simplex(3)
    st0 = b3.star((0,))
    assert len(st0.maximal_faces) == 3
    assert all(0 in f for f in st0.maximal_faces)
    facet = b3.facets[0]
    assert b3.star(facet) == Complex([facet])


def test_star_is_join_of_simplex_and_link():
    k = stacked_sphere(4, 2, 5)
    for v in sorted(k.vertices)[:4]:
        link = k.link((v,))
        rebuilt = join(Complex([[v]]), link)
        assert rebuilt == k.star((v,))


def test_induced():
    b3 = boundary_simplex(3)
    tri = b3.induced({0, 1, 2})
    assert tri == Complex([[0, 1, 2]])
    assert b3.induced(b3.vertices) == b3
    with pytest.raises(UnknownVertex):
        b3.induced({0, 9})


def test_induced_deleted_vertex_of_boundary_simplex_is_solid_ball():
    # independent oracle: faces of the 5-simplex avoiding one vertex
    b5 = boundary_simplex(5)
    sub = b5.induced(set(range(5)))
    expected = {f for n in range(1, 6) for f in itertools.combinations(range(5), n)}
    got = {f for d in range(sub.dim + 1) for f in sub.faces(d)}
    assert got == expected
    assert sub.maximal_faces == frozenset({tuple(range(5))})


def test_skeleton():
    b3 = boundary_simplex(3)
    skel = b3.skeleton(1)
    assert skel.maximal_faces == frozenset(itertools.combinations(range(4), 2))
    assert b3.skeleton(2) == b3
    with pytest.raises(OutOfRange):
        b3.skeleton(5)


def test_join_of_two_circles_is_3_sphere():
    a = triangle_circle()
    b = Complex([[3, 4], [4, 5], [3, 5]])
    j = join(a, b)
    assert j.dim == 3
    assert j.f_counts() == (1, 6, 15, 18, 9)
    with pytest.raises(VertexOverlap):
        join(a, a)


def test_join_identities():
    k = boundary_simplex(2)
    point = Complex([[9]])
    c = join(point, k)
    assert c == Complex([[0, 1, 9], [0, 2, 9], [1, 2, 9]])
    empty = Complex([()])
    assert join(empty, k) == k


def test_missing_simplices_of_circle_join():
    j = join(triangle_circle(), Complex([[3, 4], [4, 5], [3, 5]]))
    # independent oracle: all vertex triples checked directly
    expected = set()
    triangles = j.faces(2)
    edges = j.faces(1)
    for cand in itertools.combinations(range(6), 3):
        if cand in triangles:
            continue
        if all(e in edges for e in itertools.combinations(cand, 2)):
            expected.add(cand)
    assert j.missing_simplices(2) == expected
    assert expected == {(0, 1, 2), (3, 4, 5)}


def test_missing_simplices_of_boundary_simplex():
    b5 = boundary_simplex(5)
    assert b5.missing_simplices(4) == frozenset()
    assert b5.missing_simplices(5) == frozenset({tuple(range(6))})


def test_missing_and_present_disjoint():
    k = stacked_sphere(4, 3, 17)
    for dim in range(1, k.dim + 1):
        assert not (k.missing_simplices(dim) & k.faces(dim))


def missing_simplices_reference(k, d):
    """Every (d + 1)-subset of the vertices that is absent with its boundary present."""
    present = k.faces(d) if d <= k.dim else frozenset()
    return frozenset(
        s for s in itertools.combinations(sorted(k.vertices), d + 1)
        if s not in present and all(sub in k.faces(d - 1) for sub in itertools.combinations(s, d))
    )


@st.composite
def pure_complexes(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(dim + 1, dim + 5))
    facet = st.sets(st.integers(0, n - 1), min_size=dim + 1, max_size=dim + 1)
    return Complex(draw(st.lists(facet, min_size=1, max_size=12)))


@settings(max_examples=80, deadline=None)
@given(pure_complexes())
def test_missing_simplices_match_brute_force(k):
    for d in range(1, k.dim + 2):
        assert k.missing_simplices(d) == missing_simplices_reference(k, d)


@settings(max_examples=80, deadline=None)
@given(pure_complexes())
@example(boundary_simplex(4))
@example(vertex_folded_instance(3).complex)
def test_ridges_through_the_facet_index_match_a_scan(k):
    ridges = reference.ridge_facets(k)
    assert set(ridges) == k.faces(k.dim - 1)
    for r, fs in ridges.items():
        assert k.facets_through(r) == fs
    bad = sorted(r for r, fs in ridges.items() if len(fs) != 2)
    report = is_normal_pseudomanifold(k)
    assert is_pseudomanifold(k) == report.ridge_degrees_ok == (not bad)
    assert report.witnesses.get("ridges") == (bad[:10] or None)


@settings(max_examples=80, deadline=None)
@given(pure_complexes())
def test_facets_through_matches_a_scan(k):
    # every vertex set up to one more than a facet, on the labels of k
    # and one absent label: every face, (), and faces that are absent
    labels = sorted(k.vertices) + [max(k.vertices) + 1]
    absent = 0
    for size in range(k.dim + 3):
        for face in itertools.combinations(labels, size):
            got = k.facets_through(face)
            assert type(got) is tuple
            assert got == reference.facets_through(k, face)
            if not got:
                absent += 1
                with pytest.raises(FaceNotPresent):
                    k.link(face)
                with pytest.raises(FaceNotPresent):
                    k.star(face)
                continue
            ss = set(face)
            assert k.link(face) == Complex(
                [tuple(v for v in f if v not in ss) for f in k.maximal_faces if ss.issubset(f)])
            assert k.star(face) == Complex([f for f in k.maximal_faces if ss.issubset(f)])
    assert k.facets_through(()) == k.facets
    assert absent > 0


def test_facets_through_the_empty_face_builds_no_index():
    k = vertex_folded_instance(3).complex
    assert k.facets_through(()) == k.facets
    assert k._through is None


@functools.lru_cache(maxsize=None)
def corpus_complex(seed):
    return (vertex_folded_instance, edge_folded_instance, suspension_instance)[seed % 3](seed).complex


@st.composite
def complexes_and_vertex_sets(draw):
    """A pure complex (drawn, from the corpus or a stacked sphere) or a
    non-pure one, and a vertex set in drawn order on its labels and one
    absent label, from ``()`` up to dim + 2 vertices."""
    k = draw(st.one_of(
        pure_complexes(),
        st.integers(0, 5).map(corpus_complex),
        st.builds(stacked_sphere, st.integers(2, 4), st.integers(1, 6), st.integers(0, 10**6)),
        mixed_antichains().map(Complex),
    ))
    labels = sorted(k.vertices) + [max(k.vertices) + 1]
    return k, draw(st.lists(st.sampled_from(labels), unique=True, max_size=k.dim + 2))


@settings(max_examples=150, deadline=None)
@given(complexes_and_vertex_sets())
@example((boundary_simplex(4), []))
@example((boundary_simplex(4), [5, 0, 1, 2, 3, 4]))
@example((Complex([(0, 1, 2), (2, 3)]), [3, 2]))
@example((Complex([(0, 1, 2), (2, 3)]), [0, 1, 2, 3]))
def test_has_face_agrees_with_the_face_tables(case):
    # has_face reads the facet index; a fresh copy of k answers it
    # without building a face table
    k, vs = case
    s = tuple(sorted(vs))
    fresh = Complex._trusted(k.maximal_faces)
    assert fresh.has_face(vs) == (len(s) - 1 <= k.dim and s in k.faces(len(s) - 1))
    assert fresh._faces == {}


def test_is_isomorphic_relabeled():
    b5 = boundary_simplex(5)
    relabeled = b5.relabel({i: 17 * i + 3 for i in range(6)})
    mapping = is_isomorphic(b5, relabeled)
    assert mapping is not None
    assert {tuple(sorted(mapping[v] for v in f)) for f in b5.maximal_faces} == set(
        relabeled.maximal_faces
    )


def test_is_isomorphic_negative():
    assert is_isomorphic(boundary_simplex(5), boundary_simplex(4)) is None
    a = stacked_sphere(4, 3, 1)
    b = boundary_simplex(5)
    assert is_isomorphic(a, b) is None


def test_is_isomorphic_reflexive_symmetric():
    for seed in (1, 2, 3):
        k = stacked_sphere(4, 3, seed)
        assert is_isomorphic(k, k) is not None
        other = k.relabel({v: v + 100 for v in k.vertices})
        assert is_isomorphic(k, other) is not None
        assert is_isomorphic(other, k) is not None


def test_is_isomorphic_distinguishes_same_f_vector():
    # two stacked spheres with equal f-vectors but different gluing trees
    path = stacked_sphere(4, 3, 2)
    assert is_isomorphic(path, path.relabel({v: v + 50 for v in path.vertices}))


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_is_isomorphic_stack_does_not_grow_with_vertex_count():
    # a recursive matcher needs one frame per vertex, 65 here
    k = stacked_sphere(4, 60, 3)
    labels = sorted(k.vertices)
    shuffled = labels[:]
    random.Random(5).shuffle(shuffled)
    copy = k.relabel(dict(zip(labels, shuffled)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        mapping = is_isomorphic(k, copy)
    finally:
        sys.setrecursionlimit(limit)
    assert k.relabel(mapping) == copy


def _incidence_graph(nx, k):
    """Vertex-facet incidence graph; its kind-preserving isomorphisms are
    exactly the vertex bijections carrying maximal faces onto maximal faces."""
    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in k.vertices), kind="vertex")
    g.add_nodes_from((("f", f) for f in k.maximal_faces), kind="facet")
    g.add_edges_from((("v", v), ("f", f)) for f in k.maximal_faces for v in f)
    return g


@functools.lru_cache(maxsize=None)
def _vf2_bases():
    return (
        boundary_simplex(5),
        stacked_sphere(3, 6, 4),
        stacked_sphere(4, 5, 8),
        vertex_folded_instance(3).complex,
        edge_folded_instance(4).complex,
        suspension_instance(5).complex,
    )


def _relabelled(k, rng):
    labels = sorted(k.vertices)
    return k.relabel(dict(zip(labels, rng.sample(range(200), len(labels)))))


def test_is_isomorphic_agrees_with_vf2():
    nx = pytest.importorskip("networkx")

    def vf2(a, b):
        return nx.is_isomorphic(
            _incidence_graph(nx, a),
            _incidence_graph(nx, b),
            node_match=lambda x, y: x["kind"] == y["kind"],
        )

    rng = random.Random(2024)
    bases = _vf2_bases()
    pairs = [(k, _relabelled(k, rng)) for k in bases for _ in range(2)]
    # near misses: equal f-vectors, isomorphic or not
    spheres = [stacked_sphere(4, 4, seed) for seed in range(10)]
    pairs += list(itertools.combinations(spheres, 2))
    folded = vertex_folded_instance(3).complex
    subdivided = [facet_subdivision(folded, f) for f in folded.facets[:8]]
    pairs += list(itertools.combinations(subdivided, 2))

    outcomes = []
    for a, b in pairs:
        mapping = is_isomorphic(a, b)
        assert (mapping is not None) == vf2(a, b)
        if mapping is not None:
            assert a.relabel(mapping) == b
        outcomes.append(mapping is not None)
    assert len(set(outcomes[len(bases) * 2:])) == 2


def _classes(colors):
    groups = {}
    for v, c in colors.items():
        groups.setdefault(c, []).append(v)
    return sorted(map(sorted, groups.values()))


def test_colors_partition_like_the_joint_refinement():
    """Each complex's own colour classes are the classes the refinement
    over both complexes of a pair, through one shared table, gives it."""
    rng = random.Random(25)
    for k in _vf2_bases():
        copy = _relabelled(k, rng)
        joint = reference.joint_colors(k, copy)
        assert _classes(_colors(k)) == _classes(joint[0])
        assert _classes(_colors(copy)) == _classes(joint[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 * 10**6), st.randoms(use_true_random=False))
def test_sorted_colors_are_a_relabelling_invariant(seed, rnd):
    k = (_vf2_bases()[seed % 6] if seed < 10**6
         else stacked_sphere(3 + seed % 2, 1 + seed % 6, seed))
    assert sorted(_colors(_relabelled(k, rnd)).values()) == sorted(_colors(k).values())


def roundtrip_pairs(seed=1):
    """The 20 complexes of the ``roundtrip`` benchmark corpus at ``seed``,
    each with its seeded relabelling, drawn in the benchmark's order."""
    rng = random.Random(f"roundtrip:{seed}")
    recipes = (
        [(vertex_folded_instance, dict(folds=1, sums=i % 3, subdivisions=i % 2)) for i in range(5)]
        + [(vertex_folded_instance, dict(folds=2, sums=i % 2)) for i in range(3)]
        + [(edge_folded_instance, dict(edge_folds=1, sums=i % 3, subdivisions=i % 2))
           for i in range(5)]
        + [(edge_folded_instance, dict(edge_folds=1, vertex_folds=1, sums=i % 2)) for i in range(3)]
        + [(suspension_instance, dict(extra_vertex_folds=i % 2, sums=i % 2, subdivisions=i // 2))
           for i in range(4)]
    )
    pairs = []
    for make, kwargs in recipes:
        k = make(rng.getrandbits(31), **kwargs).complex
        labels = sorted(k.vertices)
        mapping = dict(zip(labels, rng.sample(range(2 * len(labels)), len(labels))))
        pairs.append((k, k.relabel(mapping)))
    return pairs


def assert_colors_match_the_reference(k):
    # the same values in the same order: is_isomorphic reads both
    assert list(_colors(k).items()) == list(reference.reference_colors(k).items())


def test_colors_match_the_reference_count(monkeypatch):
    pairs = roundtrip_pairs()
    low = [Complex([()]), Complex([(0,), (3,), (7,)]), triangle_circle(), boundary_simplex(3),
           Complex([(0, 1, 2), (2, 3), (4,)]), Complex([(0, 1), (1, 2, 3, 4), (5,)]),
           join(triangle_circle(), Complex([(5,), (6,)]))]
    for k in [*_vf2_bases(), *itertools.chain.from_iterable(pairs), *low]:
        assert_colors_match_the_reference(k)
    # and is_isomorphic finds the same mapping with either colouring
    mappings = [is_isomorphic(a, b) for a, b in pairs]
    assert all(a.relabel(m) == b for (a, b), m in zip(pairs, mappings))
    monkeypatch.setattr(importlib.import_module("psf.complexes"), "_colors",
                        reference.reference_colors)
    assert [is_isomorphic(a, b) for a, b in pairs] == mappings


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=5).map(lambda s: tuple(sorted(s))),
                max_size=12))
def test_antichain_matches_quadratic_filter(faces):
    assert _antichain(frozenset(faces)) == reference.antichain(faces)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_link_face_counting_identity(seed, k):
    """Summing f_{k-1} over all vertex links counts each k-face (k+1) times."""
    complex_ = stacked_sphere(3, 1 + seed % 3, seed)
    if k > complex_.dim:
        return
    total = 0
    for v in complex_.vertices:
        link = complex_.link((v,))
        if k - 1 <= link.dim:
            total += len(link.faces(k - 1))
    assert total == (k + 1) * len(complex_.faces(k))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_link_dimension_identity(seed):
    k = stacked_sphere(4, 2, seed)
    for face in sorted(k.faces(1))[:5]:
        assert k.link(face).dim == k.dim - 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=3, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_general_complex_face_closure(parts):
    k = Complex([tuple(sorted(p)) for p in parts])
    for d in range(k.dim + 1):
        for face in k.faces(d):
            for sub in itertools.combinations(face, d):
                assert k.has_face(sub)


# -- the trusted constructor ---------------------------------------------


def test_trusted_complexes_match_init_on_decompositions(shared_corpus):
    with reference.trusted_against_init() as callers:
        for name, k in shared_corpus:
            for v in sorted(k.vertices)[:3]:
                k.star((v,))
            if k.dim != 4:
                continue
            singular = sorted(v for v, s in classify_vertices(k).items() if s.singular)
            for mode in MODES:
                try:
                    tree = decompose(k, singular[0] if singular else min(k.vertices), mode)
                except DecompositionError:
                    continue
                assert rebuild(tree) == k, (name, mode)
    assert {"_identify", "facet_subdivision", "from_facets", "link", "star",
            "inverse_facet_subdivision", "_split", "_unfold"} <= callers


def test_trusted_constructor_on_the_empty_facet_set():
    assert Complex._trusted([]) == Complex([]) == Complex([()])
    assert Complex._trusted([]).dim == -1 and Complex._trusted([]).vertices == frozenset()


def mixed_antichains():
    """Canonical facets of a non-pure complex, in drawn order: the sorted
    label sets of a random list that lie in no other, of two or more
    lengths."""
    sets = st.lists(st.frozensets(st.integers(0, 8), min_size=1, max_size=5),
                    min_size=2, max_size=10)
    return sets.map(lambda fs: [tuple(sorted(f)) for f in dict.fromkeys(fs)
                                if not any(f < g for g in fs)]
                    ).filter(lambda facets: len(set(map(len, facets))) > 1)


@settings(max_examples=60, deadline=None)
@given(mixed_antichains())
def test_non_pure_sources_build_trusted_as_init(facets):
    with reference.trusted_against_init() as callers:
        k = Complex._trusted(facets)
        assert not k.is_pure and k.dim == max(map(len, facets)) - 1
        padded = facets + [f[1:] for f in facets]
        for faces in (facets, padded):
            assert Complex(faces).maximal_faces == reference.antichain(faces)
        for v in sorted(k.vertices):
            through = [f for f in k.maximal_faces if v in f]
            assert k.star((v,)) == Complex(through)
            assert k.link((v,)) == Complex([tuple(w for w in f if w != v) for f in through])
        top = max(k.facets, key=len)
        sub = facet_subdivision(k, top)
        assert inverse_facet_subdivision(sub, max(sub.vertices)) == k
        shift = {v: v + max(k.vertices) + 1 for v in k.vertices}
        summed = connected_sum(k, k.relabel(shift), {v: shift[v] for v in top})
        assert len(summed.maximal_faces) == 2 * len(facets) - 2
    assert {"link", "star", "facet_subdivision", "inverse_facet_subdivision", "_identify"} <= callers


@pytest.mark.parametrize("facets, error, message", [
    ([(1, 0, 2)], ComplexError, "trusted facet (1, 0, 2) is not sorted"),
    ([(0, 0, 1)], DuplicateVertexInFacet, "repeated vertex in (0, 0, 1)"),
    ([(-1, 0, 1)], ComplexError, "vertex labels must be non-negative, got (-1, 0, 1)"),
])
def test_debug_verify_checks_trusted_input(monkeypatch, facets, error, message):
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    assert Complex._trusted(facets).maximal_faces == frozenset(facets)  # taken as given
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    with pytest.raises(error) as err:
        Complex._trusted(facets)
    assert type(err.value) is error and str(err.value) == message
    assert Complex._trusted([(0, 1), (1, 2)]) == Complex([[1, 0], [2, 1]])
    # mixed lengths are no refusal: they go through the body Complex(...) runs
    mixed, ref = Complex._trusted([(0, 1), (0, 1, 2)]), Complex([(0, 1), (0, 1, 2)])
    assert mixed == ref and (mixed.dim, mixed.is_pure) == (ref.dim, ref.is_pure) == (2, True)


@pytest.mark.parametrize("make, label", [
    (lambda: facet_subdivision(boundary_simplex(5), (0, 1, 2, 3, 4), -1), "(-1, 1, 2, 3, 4)"),
    (lambda: cone(-1, boundary_simplex(3)), "(-1, 0, 1, 2)"),
    (lambda: one_vertex_suspension(boundary_simplex(3), 0, -2), "(-2, 0, 1, 2)"),
], ids=["facet_subdivision", "cone", "one_vertex_suspension"])
def test_negative_new_labels_are_refused(make, label):
    with pytest.raises(ComplexError) as err:
        make()
    assert str(err.value) == f"vertex labels must be non-negative, got {label}"


@pytest.mark.parametrize("label", [0.5, 6.0, True, "x"], ids=["float", "whole-float", "bool", "str"])
@pytest.mark.parametrize("facet", [(0, 1, 2, 3), (0, 1, 2, 9)], ids=["facet", "not-a-facet"])
def test_facet_subdivision_refuses_non_integer_labels(label, facet):
    # the label is checked before the facet, and before the sign and
    # presence checks that would compare it with integers
    with pytest.raises(ComplexError) as err:
        facet_subdivision(boundary_simplex(4), facet, label)
    assert type(err.value) is ComplexError
    assert str(err.value) == f"expected an integer, got {label!r}"


# -- history independence ------------------------------------------------


def routes(k, seed):
    """The facet set of ``k`` built five ways: from a shuffled list, from
    the reversed sorted list, through ``_trusted`` and ``from_facets``,
    and as made."""
    shuffled = list(k.maximal_faces)
    random.Random(seed).shuffle(shuffled)
    return [Complex(shuffled), Complex(k.facets[::-1]), Complex._trusted(list(k.maximal_faces)),
            Complex.from_facets(k.facets), k]


def observed(k):
    """What a caller reads off ``k``: the refusals of a negative label by
    the operations that combine its facets with a label, the facet file,
    the vertex verdicts and, in dimension 4, the tree JSON (or refusal)
    of each mode."""
    v, f = min(k.vertices), k.facets[len(k.facets) // 2]
    out = {}
    for name, call in (("cone", lambda: cone(-1, k)),
                       ("one_vertex_suspension", lambda: one_vertex_suspension(k, v, apex=-2)),
                       ("facet_subdivision", lambda: facet_subdivision(k, f, -1)),
                       ("relabel", lambda: k.relabel({v: -3}))):
        with pytest.raises(ComplexError) as err:
            call()
        out[name] = str(err.value)
    out["facet file"] = format_complex(k)
    verdicts = classify_vertices(k)
    out["verdicts"] = verdicts
    if k.dim == 4:
        singular = sorted(u for u, verdict in verdicts.items() if verdict.singular)
        for mode in MODES:
            try:
                out[mode] = json.dumps(decompose(k, singular[0] if singular else v, mode).to_dict())
            except DecompositionError as exc:
                out[mode] = f"{type(exc).__name__}: {exc}"
    return out


def test_outputs_depend_only_on_the_facet_set(shared_corpus):
    for seed, (name, k) in enumerate(shared_corpus):
        expected = observed(k)
        for route, built in enumerate(routes(k, seed)):
            assert built == k
            assert observed(built) == expected, (name, route)


@settings(max_examples=150, deadline=None)
@given(st.one_of(pure_complexes(), mixed_antichains().map(Complex),
                 st.builds(stacked_sphere, st.integers(2, 4), st.integers(1, 6),
                           st.integers(0, 10**6))))
def test_colors_match_the_reference_on_drawn_complexes(k):
    assert_colors_match_the_reference(k)
