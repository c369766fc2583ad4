import itertools

import pytest

from psf.build import boundary_simplex, connected_sum
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    suspension_instance,
    vertex_folded_instance,
)
from psf.separation import (
    NotMissingFacet,
    PreconditionUnmet,
    classify_missing_facet,
    separates_link,
    separates_link_poset,
    separation_report,
    two_sided,
)
from reference import ridge_facets


def summed_pair():
    a = boundary_simplex(5)
    b = boundary_simplex(5).relabel({i: i + 10 for i in range(6)})
    mapping = dict(zip(a.facets[0], b.facets[0]))
    return connected_sum(a, b, mapping), a.facets[0], a, b


def test_connected_sum_separates_at_every_vertex():
    k, tau, a, b = summed_pair()
    report = separation_report(k, tau)
    assert report.non_separating == ()
    for x in tau:
        sep = report.per_vertex[x]
        assert sep.separates
        # each side's facets come from one summand
        sides = sep.sides
        from_a = {f for f in k.maximal_faces if set(f) <= a.vertices}
        for side in sides:
            in_a = side <= from_a
            in_b = not (side & from_a)
            assert in_a or in_b


def test_not_missing_facet_rejected():
    k, tau, _, _ = summed_pair()
    with pytest.raises(NotMissingFacet):
        separates_link(k, tau[0], k.facets[0])
    with pytest.raises(NotMissingFacet):
        separates_link(k, 0, (0, 1, 2))


def test_vertex_fold_image_separation_pattern():
    record = vertex_folded_instance(19)
    k, t = record.complex, record.tracked
    tau = record.fold_images[0][1]
    report = separation_report(k, tau)
    assert report.non_separating == (t,)
    for x in tau:
        assert report.per_vertex[x].separates == (x != t)


def test_edge_fold_image_separation_pattern():
    record = edge_folded_instance(20)
    k = record.complex
    tau = record.fold_images[0][1]
    report = separation_report(k, tau)
    assert set(report.non_separating) == {record.tracked, record.companion}


def test_poset_oracle_agrees_on_corpus():
    instances = [
        summed_pair()[0:2],
        (vertex_folded_instance(21).complex, vertex_folded_instance(21).fold_images[0][1]),
        (edge_folded_instance(22).complex, edge_folded_instance(22).fold_images[0][1]),
        (handle_instance(23).complex, handle_instance(23).fold_images[0][1]),
    ]
    for k, tau in instances:
        for x in tau:
            fast = separates_link(k, x, tau)
            slow_sep, slow_comps = separates_link_poset(k, x, tau)
            assert fast.separates == slow_sep
            assert len(slow_comps) in (1, 2)
            if fast.separates:
                assert set(fast.sides) == set(slow_comps)


def link_cut_reference(k, x, tau):
    """The link-building cut: components of the facet graph of the link
    of x, without the adjacencies across ridges inside tau - x, in order
    of their smallest facet."""
    link = k.link((x,))
    barrier = set(tau) - {x}
    adjacent = {f: set() for f in link.maximal_faces}
    for ridge, fs in ridge_facets(link).items():
        if not set(ridge) <= barrier:
            for f, g in itertools.combinations(fs, 2):
                adjacent[f].add(g)
                adjacent[g].add(f)
    comps = []
    for f in sorted(adjacent):
        if any(f in c for c in comps):
            continue
        comp, stack = {f}, [f]
        while stack:
            for g in adjacent[stack.pop()] - comp:
                comp.add(g)
                stack.append(g)
        comps.append(frozenset(comp))
    return comps


def test_separates_link_matches_link_building_cut():
    complexes = [
        vertex_folded_instance(61).complex,
        vertex_folded_instance(62, folds=2, sums=1).complex,
        edge_folded_instance(63).complex,
        edge_folded_instance(64, edge_folds=1, vertex_folds=1).complex,
        suspension_instance(65).complex,
        suspension_instance(66, sums=1, subdivisions=1).complex,
        handle_instance(67).complex,
        summed_pair()[0],
    ]
    outcomes = set()
    for k in complexes:
        for tau in sorted(k.missing_simplices(k.dim))[:4]:
            for x in tau:
                comps = link_cut_reference(k, x, tau)
                fast = separates_link(k, x, tau)
                assert fast.separates == (len(comps) == 2)
                assert fast.sides == (tuple(comps) if fast.separates else None)
                assert separates_link_poset(k, x, tau) == (fast.separates, comps)
                outcomes.add(fast.separates)
    assert outcomes == {False, True}


def test_two_sided_on_connected_sum_and_fold():
    k, tau, _, _ = summed_pair()
    for v in tau:
        ok, _ = two_sided(k, tau, v)
        assert ok

    record = vertex_folded_instance(24)
    ok, _ = two_sided(record.complex, record.fold_images[0][1], record.tracked)
    assert ok


def test_two_sided_precondition():
    record = edge_folded_instance(25)
    tau = record.fold_images[0][1]
    # companion does not separate, so anchoring at the tracked vertex
    # leaves a failing precondition at the companion
    with pytest.raises(PreconditionUnmet):
        two_sided(record.complex, tau, record.tracked)


def test_classification_matches_constructing_op():
    k, tau, _, _ = summed_pair()
    assert classify_missing_facet(k, tau).kind == "connected_sum_split"

    record = vertex_folded_instance(26)
    cls = classify_missing_facet(record.complex, record.fold_images[0][1])
    assert cls.kind == "vertex_fold"
    assert cls.vertex == record.tracked

    record = edge_folded_instance(27)
    cls = classify_missing_facet(record.complex, record.fold_images[0][1])
    assert cls.kind == "edge_fold"
    assert tuple(sorted(cls.edge)) == (record.tracked, record.companion)

    record = handle_instance(28)
    cls = classify_missing_facet(record.complex, record.fold_images[0][1])
    assert cls.kind == "handle_like"


def test_side_labeling_deterministic():
    record = vertex_folded_instance(29)
    k, tau = record.complex, record.fold_images[0][1]
    r1 = separation_report(k, tau)
    r2 = separation_report(k, tau)
    for x in tau:
        assert r1.per_vertex[x].sides == r2.per_vertex[x].sides
