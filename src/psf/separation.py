"""Separation and two-sidedness analysis around missing facets.

For a missing facet tau of a normal pseudomanifold, the key question at
each vertex x of tau is whether the boundary of (tau - x) separates the
link of x.  The per-vertex answers select the inverse operation that
must have produced tau: connected-sum split, vertex unfolding or edge
unfolding.  ``classify_missing_facet`` alone makes that choice; the
unfoldings and the decomposition engine act on the class it returns.

Two implementations of the separation test exist on purpose: the fast
one cuts the facet adjacency graph of the link, and an exhaustive
face-poset sweep acts as an independent oracle in tests.  The fast one
builds no link: the facets of the link of a vertex or an edge are the
residues of the facets through it, and the cut joins them across their
shared ridges directly.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .complexes import Complex, ComplexError, FaceNotPresent, Simplex, simplex
from .verify import _cut_components


class SeparationError(ComplexError):
    pass


class NotMissingFacet(SeparationError):
    pass


class MoreThanTwoComponents(SeparationError):
    """Cutting a link along a missing-facet boundary left more than two
    pieces, which contradicts normality of the input."""


class PreconditionUnmet(SeparationError):
    pass


class SideAssignmentInconsistent(SeparationError):
    """The two-point side anchors cannot be oriented coherently."""


class VertexSeparation(NamedTuple):
    vertex: int
    separates: bool
    sides: Optional[tuple[frozenset[Simplex], frozenset[Simplex]]]


class SeparationReport(NamedTuple):
    missing_facet: Simplex
    per_vertex: dict[int, VertexSeparation]

    @property
    def non_separating(self) -> tuple[int, ...]:
        return tuple(v for v in self.missing_facet if not self.per_vertex[v].separates)


class MissingFacetClass(NamedTuple):
    """The inverse operation a missing facet admits, read off ``report``;
    a split carries the two ``pieces`` of its global cut."""

    kind: str  # connected_sum_split | vertex_fold | edge_fold | handle_like | unclassified
    vertex: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    report: Optional[SeparationReport] = None
    pieces: Optional[tuple[frozenset[Simplex], frozenset[Simplex]]] = None


def require_missing_facet(k: Complex, tau) -> Simplex:
    t = simplex(tau)
    if len(t) != k.dim + 1:
        raise NotMissingFacet(f"{t} has the wrong number of vertices for a missing facet")
    if k.has_face(t):
        raise NotMissingFacet(f"{t} is a face of the complex, not missing")
    if any(not k.has_face(sub) for sub in itertools.combinations(t, len(t) - 1)):
        raise NotMissingFacet(f"boundary of {t} is not fully present")
    return t


def _link_cut(k: Complex, face: Simplex, t: Simplex) -> list[frozenset[Simplex]]:
    """Components of the link of ``face`` cut along the boundary of
    ``t - face``.  The facets of the link are the residues ``f - face``
    of the facets f through the face, so no link is built."""
    residues = [tuple([v for v in f if v not in face]) for f in k.facets_through(face)]
    return _cut_components(residues, set(t).difference(face))


def separates_link(k: Complex, x: int, tau) -> VertexSeparation:
    """Does the boundary of (tau - x) separate the link of x?

    One component means no; two components yields the sides; anything
    else flags corrupted input.
    """
    t = require_missing_facet(k, tau)
    if x not in t:
        raise SeparationError(f"vertex {x} is not in {t}")
    return _separates(k, x, t)


def _separates(k: Complex, x: int, t: Simplex) -> VertexSeparation:
    """``separates_link`` for a vertex ``x`` of a ``t`` known to be a
    missing facet."""
    comps = _link_cut(k, (x,), t)
    if len(comps) == 1:
        return VertexSeparation(x, False, None)
    if len(comps) == 2:
        return VertexSeparation(x, True, (comps[0], comps[1]))
    raise MoreThanTwoComponents(
        f"link of {x} fell into {len(comps)} pieces along {t}; input is not a normal pseudomanifold"
    )


def separates_link_poset(k: Complex, x: int, tau) -> tuple[bool, list[frozenset[Simplex]]]:
    """Independent oracle: exhaustive sweep of the face poset of the link.

    Faces inside the barrier are removed; remaining faces are connected
    whenever one covers the other.  Components are reported restricted
    to the link's facets so they are comparable with the graph cut.
    """
    t = require_missing_facet(k, tau)
    if x not in t:
        raise SeparationError(f"vertex {x} is not in {t}")
    link = k.link((x,))
    barrier = set(t) - {x}

    nodes = [f for d in range(link.dim + 1) for f in link.faces(d) if not set(f) <= barrier]
    parent = {f: f for f in nodes}

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    node_set = set(nodes)
    for f in nodes:
        if len(f) == 1:
            continue
        for sub in itertools.combinations(f, len(f) - 1):
            if sub in node_set:
                parent[find(f)] = find(sub)

    groups: dict[Simplex, set[Simplex]] = {}
    for f in link.maximal_faces:
        groups.setdefault(find(f), set()).add(f)
    comps = sorted((frozenset(g) for g in groups.values()), key=min)
    return len(comps) > 1, comps


def separation_report(k: Complex, tau) -> SeparationReport:
    return _report(k, require_missing_facet(k, tau))


def _report(k: Complex, t: Simplex) -> SeparationReport:
    """``separation_report`` for a ``t`` known to be a missing facet."""
    return SeparationReport(t, {x: _separates(k, x, t) for x in t})


# -- anchored side orientation -------------------------------------------


def two_point_anchors(k: Complex, tau) -> dict[int, tuple[int, int]]:
    """For each vertex y of tau, the two facets over the ridge tau - y
    give a two-vertex link {q0, q1}; q0 is the smaller label."""
    t = simplex(tau)
    anchors = {}
    for y in t:
        ridge = tuple(v for v in t if v != y)
        through = k.facets_through(ridge)
        if not through:
            raise FaceNotPresent(f"{ridge} is not a face")
        pair = sorted(v for f in through for v in f if v not in ridge)
        if len(pair) != 2:
            raise SeparationError(f"link of ridge {ridge} is not two points: {pair}")
        anchors[y] = (pair[0], pair[1])
    return anchors


def _oriented_sides(k: Complex, a: int, report: SeparationReport) -> dict[int, frozenset[Simplex]]:
    """The plus side of the link of each separating vertex of the missing
    facet t of ``report``, read off one anchor facet.

    Each ridge t - y lies in two facets t - y + q0 and t - y + q1, with
    q0 the smaller apex (``two_point_anchors``).  The anchor facet
    t - a + q0 holds every vertex of t but the anchor vertex a, so its
    residue lies in the link of every separating x != a; the side
    holding it is the plus side.  Each other ridge t - y is oriented by
    whether its q0 residue lies on the plus side, and every separating
    x off y and a must read the same orientation.  A separating a takes
    the side that agrees with every oriented ridge.

    Raises ``SideAssignmentInconsistent`` when a vertex off t meets both
    sides of a link, when the two residues over a ridge share a side, or
    when two readings disagree.
    """
    t = report.missing_facet
    anchors = two_point_anchors(k, t)
    separating = [x for x in t if report.per_vertex[x].separates]

    def residue(x: int, y: int, q: int) -> Simplex:
        """The facet t - y + q less x."""
        return tuple(sorted([v for v in t if v != x and v != y] + [q]))

    plus: dict[int, frozenset[Simplex]] = {}
    for x in separating:
        first, second = report.per_vertex[x].sides
        both = {w for f in first for w in f if w not in t} & {w for f in second for w in f}
        if both:
            raise SideAssignmentInconsistent(f"vertex {min(both)} meets sides [0, 1]")
        for y in t:
            if y == x:
                continue
            q0, q1 = anchors[y]
            if (residue(x, y, q0) in first) == (residue(x, y, q1) in first):
                raise SideAssignmentInconsistent(
                    f"anchor pair {q0},{q1} of ridge opposite {y} lies on one side of link({x})"
                )
        if x != a:
            plus[x] = first if residue(x, a, anchors[a][0]) in first else second

    orientation: dict[int, bool] = {}
    for y in t:
        for x in plus:
            if y not in (x, a):
                up = residue(x, y, anchors[y][0]) in plus[x]
                if orientation.setdefault(y, up) != up:
                    raise SideAssignmentInconsistent(
                        f"parity conflict between {('ridge', y)} and {('vertex', x)}")
    if a in separating:
        first, second = report.per_vertex[a].sides
        for y, up in orientation.items():
            side = first if (residue(a, y, anchors[y][0]) in first) == up else second
            if plus.setdefault(a, side) != side:
                raise SideAssignmentInconsistent(
                    f"parity conflict between {('ridge', y)} and {('vertex', a)}")
    return plus


def two_sided(k: Complex, tau, v: int) -> tuple[bool, str]:
    """Verify that the boundary of (tau - v) is two-sided in the link of v.

    Requires every other vertex of tau to separate its link; the
    verification is the coherence of the anchored side assignment.  A
    False return carries the witness and indicates invalid input.
    """
    t = require_missing_facet(k, tau)
    if v not in t:
        raise SeparationError(f"vertex {v} is not in {t}")
    report = _report(k, t)
    for x in t:
        if x != v and not report.per_vertex[x].separates:
            raise PreconditionUnmet(f"vertex {x} does not separate its link")
    try:
        _oriented_sides(k, v, report)
    except SideAssignmentInconsistent as exc:
        return False, str(exc)
    return True, "anchored side assignment is coherent"


def classify_missing_facet(k: Complex, tau) -> MissingFacetClass:
    """Classify which operation produced the missing facet ``tau``.

    No non-separating vertex: connected sum, with the two pieces of the
    global cut (or handle, when the global facet graph stays connected
    after the cut).  One: vertex folding at that vertex.  Two forming a
    sorted edge: edge folding, unless the link of the edge is separated
    too, which is the handle signature.  A cut into more than two pieces
    raises ``MoreThanTwoComponents``.
    """
    t = require_missing_facet(k, tau)
    report = _report(k, t)
    non_sep = report.non_separating

    if len(non_sep) == 0:
        comps = _cut_components(k.maximal_faces, set(t))
        if len(comps) == 1:
            return MissingFacetClass("handle_like", report=report)
        if len(comps) == 2:
            return MissingFacetClass("connected_sum_split", report=report, pieces=tuple(comps))
        raise MoreThanTwoComponents(f"global cut along {t} produced {len(comps)} pieces")
    if len(non_sep) == 1:
        return MissingFacetClass("vertex_fold", vertex=non_sep[0], report=report)
    if len(non_sep) == 2:
        u, v = non_sep
        if k.has_face((u, v)):
            comps = _link_cut(k, (u, v), t)
            if len(comps) == 1:
                return MissingFacetClass("edge_fold", edge=(u, v), report=report)
            if len(comps) == 2:
                return MissingFacetClass("handle_like", report=report)
            raise MoreThanTwoComponents(f"link of edge {u}{v} fell into {len(comps)} pieces")
    return MissingFacetClass("unclassified", report=report)
