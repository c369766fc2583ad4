import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psf import Complex, g2, join, verify
from psf.build import (
    boundary_simplex,
    cone,
    connected_sum,
    facet_subdivision,
    one_vertex_suspension,
    stacked_sphere,
)
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    pinched_complex,
    projective_plane_6,
    singular_base_3d,
    suspension_instance,
    vertex_folded_instance,
)
from psf.verify import (
    _classify_normal_vertices,
    _normal_betti,
    classify_vertex,
    classify_vertices,
    homology_gf2,
    is_normal_pseudomanifold,
    is_pseudomanifold,
    is_pure,
    is_stacked_sphere,
    is_strongly_connected,
    optimality_check,
    singular_vertices,
)


def gf2_rank_reference(rows):
    """Row-reduction oracle over GF(2) on dense 0/1 lists."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rows and pivot_col < cols:
        pivot = next((i for i, r in enumerate(rows) if r[pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        base = rows.pop(0)
        rank += 1
        rows = [
            [a ^ b for a, b in zip(r, base)] if r[pivot_col] else r for r in rows
        ]
        pivot_col += 1
    return rank


def reference_betti(k):
    """Independent reduced GF(2) Betti computation with dense matrices."""
    faces = {d: sorted(k.faces(d)) for d in range(k.dim + 1)}
    index = {d: {f: i for i, f in enumerate(faces[d])} for d in faces}
    ranks = [0] * (k.dim + 2)
    ranks[0] = 1 if faces[0] else 0
    for d in range(1, k.dim + 1):
        rows = []
        for f in faces[d]:
            row = [0] * len(faces[d - 1])
            for sub in itertools.combinations(f, d):
                row[index[d - 1][sub]] = 1
            rows.append(row)
        ranks[d] = gf2_rank_reference(rows)
    return tuple(len(faces[d]) - ranks[d] - ranks[d + 1] for d in range(k.dim + 1))


def test_purity_and_ridge_conditions():
    b5 = boundary_simplex(5)
    assert is_pure(b5)
    assert is_pseudomanifold(b5)
    assert is_strongly_connected(b5)

    solid = Complex([tuple(range(5))])
    assert is_pure(solid)
    assert not is_pseudomanifold(solid)

    two_spheres = Complex(
        list(boundary_simplex(3).maximal_faces)
        + list(boundary_simplex(3).relabel({i: i + 10 for i in range(4)}).maximal_faces)
    )
    assert not is_strongly_connected(two_spheres)


def test_strong_connectivity_below_dimension_one():
    # Points share the empty ridge, so a 0-dimensional complex counts as
    # strongly connected whatever its number of points.
    two_points = Complex([[0], [1]])
    assert is_strongly_connected(two_points)
    assert is_normal_pseudomanifold(two_points).strongly_connected
    assert is_strongly_connected(Complex([]))
    report = is_normal_pseudomanifold(Complex([]))
    assert not report.normal
    assert (report.ridge_degrees_ok, report.links_connected) == (False, False)


def test_normality_report_on_corpus():
    assert is_normal_pseudomanifold(boundary_simplex(5)).normal
    j = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    assert is_normal_pseudomanifold(j).normal
    assert is_normal_pseudomanifold(stacked_sphere(4, 4, 2)).normal
    assert is_normal_pseudomanifold(vertex_folded_instance(5).complex).normal


def reference_link_connectivity(k):
    """The link-building definition of link connectivity.

    Builds the link of every face of dimension at most dim - 2 and runs
    a search over its 1-skeleton.  Returns ``links_connected`` and the
    ``disconnected_links`` witness list (None when there is none).
    """
    if not (k.is_pure and k.dim >= 1):
        return False, None
    bad = []
    for dim_face in range(-1, k.dim - 1):
        for face in sorted(k.faces(dim_face)):
            link = k.link(face)
            start = min(link.vertices)
            seen, stack = {start}, [start]
            while stack:
                for u in link.neighbors(stack.pop()):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen != link.vertices:
                bad.append(face)
    return not bad, bad[:10] or None


def assert_links_match_reference(k):
    report = is_normal_pseudomanifold(k)
    assert (report.links_connected, report.witnesses.get("disconnected_links")) == (
        reference_link_connectivity(k)
    )
    assert report.strongly_connected == (k.is_pure and is_strongly_connected(k))


def two_spheres_at_a_vertex():
    return Complex(list(boundary_simplex(4).maximal_faces) + list(
        boundary_simplex(4).relabel({i: i + 4 for i in range(1, 5)}).maximal_faces))


def test_link_connectivity_matches_link_building_definition(shared_corpus):
    assert_links_match_reference(pinched_complex())
    two_edges = Complex([[0, 1], [2, 3]])
    assert_links_match_reference(two_edges)
    assert is_normal_pseudomanifold(two_edges).witnesses["disconnected_links"] == [()]
    assert_links_match_reference(Complex([[0]]))
    # two 3-spheres sharing vertex 0: the cut runs and finds two pieces
    wedge = two_spheres_at_a_vertex()
    assert_links_match_reference(wedge)
    report = is_normal_pseudomanifold(wedge)
    assert not report.strongly_connected
    assert report.witnesses["disconnected_links"] == [(0,)]
    for _, k in shared_corpus:
        assert_links_match_reference(k)


def sparse(v):
    return 10**6 * v + 7


def test_normality_report_is_label_blind(shared_corpus):
    # masks take one bit per vertex through a dense index, never 1 << label,
    # so labels near 10**8 give the same reports, witnesses mapped, and
    # the same verdicts
    complexes = [pinched_complex(), two_spheres_at_a_vertex(), singular_base_3d(6).complex]
    for k in complexes + [k for _, k in shared_corpus]:
        far = k.relabel({v: sparse(v) for v in k.vertices})
        report = is_normal_pseudomanifold(k)
        witnesses = {key: [tuple(map(sparse, face)) for face in faces]
                     for key, faces in report.witnesses.items()}
        assert is_normal_pseudomanifold(far) == report._replace(witnesses=witnesses)
        if report.normal:
            verdicts = {sparse(v): (verdict.status, verdict.certificate)
                        for v, verdict in _classify_normal_vertices(k).items()}
            assert {v: (verdict.status, verdict.certificate)
                    for v, verdict in _classify_normal_vertices(far).items()} == verdicts
            assert {v: (verdict.status, verdict.certificate)
                    for v, verdict in classify_vertices(far).items()} == verdicts


@st.composite
def pure_complexes(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(dim + 1, dim + 5))
    facet = st.sets(st.integers(0, n - 1), min_size=dim + 1, max_size=dim + 1)
    return Complex(draw(st.lists(facet, min_size=1, max_size=12)))


@settings(max_examples=80, deadline=None)
@given(pure_complexes())
def test_link_connectivity_matches_reference_on_random_pure_complexes(k):
    assert_links_match_reference(k)


def tight_wedge(d, s):
    """Two copies of the boundary of a (d + 1)-simplex sharing exactly the
    face (0, ..., s - 1), disjoint for s = 0: the shared face lies in
    2(d - s + 2) facets, the fewest through which a link can fall apart
    when every ridge has degree 2."""
    sphere = boundary_simplex(d + 1)
    copy = sphere.relabel({v: v + d + 2 for v in range(s, d + 2)})
    return Complex(sphere.maximal_faces | copy.maximal_faces), tuple(range(s))


TIGHT = [(d, s) for d in (2, 3, 4) for s in range(d)]


@pytest.mark.parametrize("d, s", TIGHT)
def test_a_link_at_the_small_link_threshold_is_merged(d, s):
    k, shared = tight_wedge(d, s)
    ridges = Counter(r for f in k.maximal_faces for r in itertools.combinations(f, d))
    assert set(ridges.values()) == {2}
    assert len(k.facets_through(shared)) == 2 * (d - s + 2)
    report = is_normal_pseudomanifold(k)
    assert report.witnesses["disconnected_links"] == [shared]
    assert_links_match_reference(k)


def ridge_failures():
    """Complexes with a ridge not in two facets, where every face is merged."""
    wedge = two_spheres_at_a_vertex()
    return [Complex(sorted(wedge.maximal_faces)[1:]), pinched_complex().skeleton(3),
            Complex(list(wedge.maximal_faces) + [(0, 1, 2, 9)]),
            Complex([[0, 1, 2], [0, 1, 3], [0, 1, 4], [2, 5, 6]])]


def test_the_check_hands_its_face_tables_to_the_complex(shared_corpus):
    complexes = [k for _, k in shared_corpus] + [tight_wedge(*ds)[0] for ds in TIGHT]
    complexes += ridge_failures()
    assert not any(is_normal_pseudomanifold(k).ridge_degrees_ok for k in ridge_failures())
    for k in complexes:
        fresh = Complex._trusted(k.maximal_faces)
        is_normal_pseudomanifold(fresh)
        assert set(fresh._faces) == set(range(k.dim))
        for j in range(-1, k.dim + 1):
            assert fresh.faces(j) == Complex._trusted(k.maximal_faces).faces(j)


def test_debug_verify_merges_the_links_the_lemma_skips(monkeypatch):
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    wedges = [tight_wedge(*ds) for ds in TIGHT]
    for k, shared in wedges:
        assert is_normal_pseudomanifold(k).witnesses["disconnected_links"] == [shared]
    monkeypatch.setattr(verify, "_fewest_to_split", lambda d, size: 2 * (d - size + 2) + 1)
    for k, shared in wedges:
        with pytest.raises(AssertionError, match=re.escape(f"link of {shared} lies in")):
            is_normal_pseudomanifold(k)
    monkeypatch.delenv("PSF_DEBUG_VERIFY")
    for k, _ in wedges:
        assert is_normal_pseudomanifold(k).links_connected


def test_pinched_complex_fails_link_connectivity():
    p = pinched_complex()
    report = is_normal_pseudomanifold(p)
    assert report.pure
    assert report.ridge_degrees_ok
    assert not report.links_connected
    assert (5,) in report.witnesses["disconnected_links"]
    assert not report.normal


def test_homology_spheres_and_cones():
    assert homology_gf2(boundary_simplex(5)) == (0, 0, 0, 0, 1)
    assert homology_gf2(boundary_simplex(3)) == (0, 0, 1)
    c = cone(10, boundary_simplex(3))
    assert homology_gf2(c) == (0, 0, 0, 0)


def test_homology_projective_plane():
    rp2 = projective_plane_6()
    assert is_normal_pseudomanifold(rp2).normal
    assert homology_gf2(rp2) == (0, 1, 1)
    assert homology_gf2(rp2) == reference_betti(rp2)


def test_homology_matches_reference_on_corpus():
    for k in (
        stacked_sphere(4, 3, 8),
        vertex_folded_instance(9).complex,
        join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]])),
    ):
        assert homology_gf2(k) == reference_betti(k)


def assert_one_rank_betti(link):
    assert link.dim == 3 and is_normal_pseudomanifold(link).normal
    assert _normal_betti(link) == homology_gf2(link) == reference_betti(link)


def test_one_rank_betti_on_corpus_vertex_links(shared_corpus):
    links = [k.link((v,)) for _, k in shared_corpus for v in sorted(k.vertices)]
    positive = [link for link in links if g2(link) > 0]
    assert len(positive) >= 10
    assert {homology_gf2(link) for link in positive} > {(0, 0, 0, 1)}
    for link in positive:
        assert_one_rank_betti(link)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 2))
def test_one_rank_betti_on_singular_bases(seed, folds, subdivisions):
    assert_one_rank_betti(singular_base_3d(seed, folds, subdivisions).complex)


def test_debug_verify_cross_checks_one_rank_betti(monkeypatch):
    record = vertex_folded_instance(12)
    link = record.complex.link((record.tracked,))
    betti = homology_gf2(link)
    assert betti != (0, 0, 0, 1)
    monkeypatch.setattr(verify, "homology_gf2", lambda k: (0, 0, 0, 1))
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    assert _normal_betti(link) == betti
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    with pytest.raises(AssertionError, match="differ from homology_gf2"):
        _normal_betti(link)


def test_is_stacked_sphere():
    assert is_stacked_sphere(stacked_sphere(4, 3, 21))
    assert not is_stacked_sphere(vertex_folded_instance(3).complex)
    j = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    assert not is_stacked_sphere(j)  # g2 = 1


def test_classify_vertices_boundary_simplex():
    verdicts = classify_vertices(boundary_simplex(5))
    assert all(v.status == "nonsingular" for v in verdicts.values())


def test_classify_fold_vertex_singular():
    record = vertex_folded_instance(12)
    k, t = record.complex, record.tracked
    verdict = classify_vertex(k, t)
    assert verdict.singular
    assert "betti" in verdict.certificate
    assert singular_vertices(k) == [t]


def test_classify_edge_fold_both_singular():
    record = edge_folded_instance(14)
    assert singular_vertices(record.complex) == [0, 1]


def test_classify_3dim_surface_links():
    base = linear_chain(3, 5, 3, fixed=(0,))
    assert singular_vertices(base) == []
    from psf.corpus import singular_base_3d

    sb = singular_base_3d(6)
    assert singular_vertices(sb.complex) == [sb.tracked]
    verdict = classify_vertex(sb.complex, sb.tracked)
    assert "euler" in verdict.certificate


def test_classify_unknown_for_uncertified_sphere_link():
    # suspension of the join of two circles: apex links are 3-spheres with
    # g2 = 1 and no missing facet, so no constructive certificate exists
    j = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    susp = one_vertex_suspension(j, 0)
    apex = max(susp.vertices)
    assert is_normal_pseudomanifold(susp).normal
    assert classify_vertex(susp, apex).status == "unknown"


def test_classify_unknown_for_subdivided_sum_with_positive_g2():
    # the join of two triangles (g2 = 1), summed with a stacked sphere and
    # subdivided: a normal 3-sphere with 11 vertices, missing facets and
    # g2 = 1, which no certificate covers
    circles = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    summand = stacked_sphere(3, 2, 1).relabel({v: v + 10 for v in range(6)})
    sphere = connected_sum(circles, summand, dict(zip(circles.facets[0], summand.facets[0])))
    for _ in range(3):
        sphere = facet_subdivision(sphere, sphere.facets[-1])
    assert len(sphere.vertices) == 11
    assert g2(sphere) == 1
    assert sphere.missing_simplices(3)
    susp = one_vertex_suspension(sphere, 0)
    apex = max(susp.vertices)
    assert susp.link((apex,)) == sphere
    verdict = classify_vertex(susp, apex)
    assert verdict.status == "unknown"
    assert verdict.certificate == "sphere-like homology but no constructive certificate"


def test_classify_vertex_proves_the_link_normal():
    # a 2-sphere with a fin triangle or a dangling edge has euler
    # characteristic 2 and one connected piece, and a 2-sphere is not the
    # link of a vertex in a 4-manifold: none is a sphere of dimension dim - 1
    s2 = list(boundary_simplex(3).maximal_faces)
    sphere_and_cone = Complex(list(boundary_simplex(5).maximal_faces)
                              + list(cone(99, boundary_simplex(3)).maximal_faces))
    for k, v in [(cone(9, Complex(s2 + [(0, 1, 4)])), 9),
                 (cone(9, Complex(s2 + [(0, 4)])), 9),
                 (sphere_and_cone, 99)]:
        verdict = classify_vertex(k, v)
        assert (verdict.status, verdict.certificate) == (
            "singular", f"link is not a normal {k.dim - 1}-pseudomanifold")
        assert v in singular_vertices(k)


def reference_normal(link, dim):
    """Whether ``link`` is a normal ``dim``-pseudomanifold, from the
    definitions: pure of dimension ``dim``, every ridge in exactly two
    facets, connected links (``reference_link_connectivity``) and a
    connected facet graph, searched over shared ridges."""
    if link.dim != dim or not link.is_pure:
        return False
    through = {}
    for f in link.maximal_faces:
        for r in itertools.combinations(f, dim):
            through.setdefault(r, []).append(f)
    if any(len(fs) != 2 for fs in through.values()):
        return False
    if not reference_link_connectivity(link)[0]:
        return False
    start = min(link.maximal_faces)
    seen, stack = {start}, [start]
    while stack:
        for r in itertools.combinations(stack.pop(), dim):
            for g in through[r]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return seen == link.maximal_faces


def reference_verdict(k, v):
    """Status and certificate: a link that is not a normal
    (dim - 1)-pseudomanifold is singular; otherwise homology first, then
    the stacked-sphere test, with connectivity read off the reduced b0."""
    link = k.link((v,))
    if not reference_normal(link, k.dim - 1):
        return "singular", f"link is not a normal {k.dim - 1}-pseudomanifold"
    betti = homology_gf2(link)
    if link.dim == 2:
        f = link.f_counts()
        chi = f[1] - f[2] + f[3]
        if betti[0] == 0 and chi == 2:
            return "nonsingular", "surface with euler characteristic 2"
        return "singular", f"closed surface with euler characteristic {chi}"
    if betti != (0, 0, 0, 1):
        return "singular", f"link gf2 betti {betti}"
    if is_stacked_sphere(link):
        return "nonsingular", "stacked"
    return "unknown", "sphere-like homology but no constructive certificate"


def polygon(labels):
    return Complex(zip(labels, labels[1:] + labels[:1]))


def test_classify_vertex_matches_homology_first_order(shared_corpus):
    circles = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    # a 3-sphere with g2 = 6 and a simplex boundary sharing vertex 11:
    # g2 = 0, but the link of vertex 11 is disconnected
    wedge = Complex(
        list(join(polygon([0, 1, 2, 3]), polygon(list(range(4, 12)))).maximal_faces)
        + list(boundary_simplex(4).relabel({i: i + 11 for i in range(5)}).maximal_faces)
    )
    assert g2(wedge) == 0 and not is_normal_pseudomanifold(wedge).normal
    # the link of 0 is two projective planes: euler characteristic 2,
    # but disconnected, so not a sphere
    rp2 = projective_plane_6()
    two_planes = Complex(rp2.maximal_faces | rp2.relabel({i: i + 6 for i in range(1, 7)}).maximal_faces)
    complexes = [k for _, k in shared_corpus] + [
        cone(0, two_planes),
        pinched_complex(),
        one_vertex_suspension(circles, 0),
        linear_chain(3, 5, 3, fixed=(0,)),
        singular_base_3d(6).complex,
        cone(16, wedge),
        cone(5, boundary_simplex(4)),
    ]
    kinds = set()
    for k in complexes:
        for v in sorted(k.vertices):
            verdict = classify_vertex(k, v)
            assert (verdict.status, verdict.certificate) == reference_verdict(k, v)
            kinds.add(verdict.certificate.split()[0])
    assert kinds == {"surface", "closed", "link", "stacked", "sphere-like"}


def trusted_classification_inputs(shared_corpus):
    circles = join(boundary_simplex(2), polygon([3, 4, 5]))
    return [k for _, k in shared_corpus] + [
        linear_chain(3, 5, 3, fixed=(0,)),
        singular_base_3d(6).complex,
        one_vertex_suspension(circles, 0),
    ]


def test_trusted_classification_matches_checked(shared_corpus):
    kinds = set()
    for k in trusted_classification_inputs(shared_corpus):
        assert is_normal_pseudomanifold(k).normal
        verdicts = _classify_normal_vertices(k)
        assert verdicts == classify_vertices(k)
        kinds.update(verdict.certificate.split()[0] for verdict in verdicts.values())
    assert kinds == {"surface", "closed", "link", "stacked", "sphere-like"}


def test_trusted_classification_builds_links_only_off_stacked_vertices(
        shared_corpus, monkeypatch):
    built = []
    link = Complex.link

    def counted(k, face):
        built.append(face)
        return link(k, face)

    monkeypatch.setattr(Complex, "link", counted)
    for k in trusted_classification_inputs(shared_corpus):
        built.clear()
        verdicts = _classify_normal_vertices(k)
        off_stacked = [(v,) for v in sorted(k.vertices) if verdicts[v].certificate != "stacked"]
        assert built == (off_stacked if k.dim == 4 else [])


def test_optimality_boundary_simplex_and_folds():
    b5 = boundary_simplex(5)
    assert optimality_check(b5, 0).optimal
    record = vertex_folded_instance(25)
    assert optimality_check(record.complex, record.tracked).optimal
    record = edge_folded_instance(26)
    assert optimality_check(record.complex, record.tracked).optimal
    assert optimality_check(record.complex, record.companion).optimal


def test_handle_added_never_optimal():
    k = handle_instance(31).complex
    assert not any(optimality_check(k, v).optimal for v in k.vertices)


def test_optimality_invariant_under_subdivision():
    record = vertex_folded_instance(33)
    k, t = record.complex, record.tracked
    before = optimality_check(k, t)
    sub = facet_subdivision(k, k.facets[0])
    after = optimality_check(sub, t)
    assert (before.g2_optimal, before.g3_optimal) == (after.g2_optimal, after.g3_optimal)


def test_suspension_optimal_at_both_poles():
    record = suspension_instance(7)
    k = record.complex
    assert optimality_check(k, record.tracked).optimal
    assert optimality_check(k, record.companion).optimal
    assert sorted(singular_vertices(k)) == sorted([record.tracked, record.companion])


def test_prop_g2_link_bound_on_corpus():
    corpus = [
        stacked_sphere(4, 3, 5),
        vertex_folded_instance(41).complex,
        edge_folded_instance(42).complex,
        handle_instance(43).complex,
        suspension_instance(44).complex,
    ]
    for k in corpus:
        bound = g2(k)
        for v in k.vertices:
            assert g2(k.link((v,))) <= bound
