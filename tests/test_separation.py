import importlib
import itertools
import random
import re
from collections import Counter

import pytest

from psf import Complex
from psf.build import boundary_simplex, connected_sum
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    projective_plane_6,
    suspension_instance,
    vertex_folded_instance,
)
from psf.decompose import edge_unfold, vertex_unfold
from psf.separation import (
    NotMissingFacet,
    PreconditionUnmet,
    SideAssignmentInconsistent,
    classify_missing_facet,
    separates_link,
    separates_link_poset,
    separation_report,
    two_sided,
)
from reference import link_cut_reference, outcome, parity_sides, witness_unfold


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
                comps = link_cut_reference(k, (x,), tau)
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


# -- side readings against the parity system -------------------------------


def merged(k, a, b):
    """``k`` with vertex ``b`` merged into ``a``; the facets through both
    are dropped."""
    return Complex({tuple(sorted(a if v == b else v for v in f))
                    for f in k.maximal_faces if not (a in f and b in f)})


def damaged_items():
    """Missing facets through the merged vertex of seeded damaged
    complexes: two vertices of a corpus complex merged into one."""
    rng = random.Random(25)
    bases = [
        vertex_folded_instance(31).complex,
        edge_folded_instance(32).complex,
        suspension_instance(33).complex,
        linear_chain(3, 8, 34),
        linear_chain(2, 8, 35),
    ]
    items = []
    for _ in range(16):
        k = bases[rng.randrange(len(bases))]
        a, b = rng.sample(sorted(k.vertices), 2)
        damaged = merged(k, a, b)
        items += [(damaged, t) for t in sorted(damaged.missing_simplices(damaged.dim)) if a in t][:6]
    return items


def _blank_witness(value):
    """``value`` with the witness of a side conflict blanked: the vertex
    on both sides of a link, and the ridge and vertex whose readings
    disagree.  The parity system named the first in its iteration order
    and the second in its solving order."""
    if type(value) is tuple and isinstance(value[1], str):
        text = re.sub(r"^vertex \d+ meets", "vertex meets", value[1])
        return value[0], re.sub(r"^parity conflict between .*", "parity conflict", text)
    return value


def side_outcomes(k, tau):
    """``two_sided`` at each vertex of tau and the unfoldings at each of
    its vertices and edges: what each call returns or raises."""
    calls = {("two_sided", v): lambda v=v: two_sided(k, tau, v) for v in tau}
    calls.update({("vertex_unfold", v): lambda v=v: vertex_unfold(k, tau, v) for v in tau})
    calls.update({("edge_unfold", e): lambda e=e: edge_unfold(k, tau, e)
                  for e in itertools.combinations(tau, 2)})
    return {key: _blank_witness(outcome(call)) for key, call in calls.items()}


def parity_outcomes(k, tau):
    """``side_outcomes`` with the sides solved as one parity system and
    the unfoldings voting with the witnesses of each facet."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("psf.separation"), "_oriented_sides", parity_sides)
        mp.setattr(importlib.import_module("psf.decompose"), "_unfold", witness_unfold)
        return side_outcomes(k, tau)


def test_side_readings_match_the_parity_system(fold_images):
    seen = Counter()
    for k, tau in fold_images + damaged_items():
        got = side_outcomes(k, tau)
        assert got == parity_outcomes(k, tau), tau
        for (name, _), value in got.items():
            seen[name, value[0] if type(value) is tuple else "unfolded"] += 1
    assert seen["two_sided", True] and seen["two_sided", False]
    assert seen["vertex_unfold", "unfolded"] and seen["edge_unfold", "unfolded"]
    assert seen["vertex_unfold", SideAssignmentInconsistent]


def two_fan_complex():
    """A 3-complex around the missing facet (0, 1, 2, 3) in which the
    edge 12 has two fans of facets, one through 0 and one through 3.
    Every link cut is two pieces, each anchor pair spans both, and no
    vertex off the facet meets both, but the links of 1 and 2 join the
    fans to opposite sides, so they orient the ridge opposite 3 in
    opposite ways."""
    return Complex([
        (0, 1, 2, 4), (0, 1, 2, 5), (1, 2, 3, 6), (1, 2, 3, 7),
        (0, 1, 3, 8), (0, 1, 4, 8), (1, 3, 6, 8), (0, 1, 3, 9), (0, 1, 5, 9), (1, 3, 7, 9),
        (0, 2, 3, 10), (0, 2, 4, 10), (2, 3, 7, 10), (0, 2, 3, 11), (0, 2, 5, 11), (2, 3, 6, 11),
    ])


# One input per way the side reading fails: the complex, its missing
# facet, the anchor vertex and the witness ``two_sided`` returns.
SIDE_FAILURES = {
    "vertex on both sides": (lambda: merged(linear_chain(3, 5, 156), 0, 12), (1, 2, 3, 4), 1,
                             "vertex 0 meets sides [0, 1]"),
    "anchor pair on one side": (lambda: merged(linear_chain(2, 5, 239), 13, 0), (1, 6, 13), 1,
                                "anchor pair 8,12 of ridge opposite 1 lies on one side of link(13)"),
    "two readings of a ridge": (two_fan_complex, (0, 1, 2, 3), 0,
                                "parity conflict between ('ridge', 3) and ('vertex', 2)"),
    # a missing triangle of the 6-vertex projective plane is one-sided
    "anchor vertex against the ridges": (projective_plane_6, (1, 2, 4), 1,
                                         "parity conflict between ('ridge', 4) and ('vertex', 1)"),
}


@pytest.mark.parametrize("name", sorted(SIDE_FAILURES))
def test_two_sided_fails_on_each_side_conflict(name):
    make, tau, v, witness = SIDE_FAILURES[name]
    k = make()
    assert two_sided(k, tau, v) == (False, witness)
    assert side_outcomes(k, tau) == parity_outcomes(k, tau)


def test_unfold_refuses_a_facet_whose_residues_disagree():
    k = merged(vertex_folded_instance(965).complex, 24, 2)
    with pytest.raises(SideAssignmentInconsistent,
                       match=r"^facet \(0, 7, 13, 19, 24\) is assigned to different sides"):
        vertex_unfold(k, (0, 3, 5, 7, 24), 0)
