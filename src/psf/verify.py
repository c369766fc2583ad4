"""Structural verification: purity, pseudomanifold and normality checks,
homology over the two-element field, stacked-sphere recognition,
singular-vertex classification and optimality certificates.

Sphere recognition for 3-dimensional links is deliberately three-valued.
Every link this library's own constructions produce carries a
constructive certificate (stacked, or reducible to simplex boundaries
by inverse subdivisions and connected-sum splits); anything else is
reported as unknown rather than guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .complexes import Complex, Simplex, UnknownVertex
from .enumeration import DimensionTooSmall
from .enumeration import g2 as _g2
from .enumeration import g3 as _g3


@dataclass(frozen=True)
class NormalityReport:
    pure: bool
    ridge_degrees_ok: bool
    strongly_connected: bool
    links_connected: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def normal(self) -> bool:
        return (
            self.pure
            and self.ridge_degrees_ok
            and self.strongly_connected
            and self.links_connected
        )


@dataclass(frozen=True)
class SingularityVerdict:
    vertex: int
    status: str  # "nonsingular" | "singular" | "unknown"
    certificate: str

    @property
    def singular(self) -> bool:
        return self.status == "singular"


@dataclass(frozen=True)
class OptimalityResult:
    g2_optimal: bool
    g3_optimal: bool

    @property
    def optimal(self) -> bool:
        return self.g2_optimal and self.g3_optimal


def is_pure(k: Complex) -> bool:
    return k.is_pure


def is_pseudomanifold(k: Complex) -> bool:
    """Pure, and every codimension-1 face lies in exactly two facets."""
    if not k.is_pure or k.dim < 1:
        return False
    return all(len(fs) == 2 for fs in k.ridge_facet_map().values())


def _connected(nodes, adjacent) -> bool:
    """Whether a depth-first search from one node reaches all of ``nodes``."""
    nodes = list(nodes)
    if len(nodes) <= 1:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for u in adjacent(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


def is_strongly_connected(k: Complex) -> bool:
    """Connectivity of the facet graph with ridge-sharing adjacency."""
    adjacency: dict[Simplex, list[Simplex]] = {f: [] for f in k.maximal_faces}
    for fs in k.ridge_facet_map().values():
        for f1, f2 in itertools.combinations(fs, 2):
            adjacency[f1].append(f2)
            adjacency[f2].append(f1)
    return _connected(adjacency, adjacency.__getitem__)


def _complex_connected(k: Complex) -> bool:
    """Connectivity through the 1-skeleton (vertices joined by edges)."""
    return _connected(k.vertices, k.neighbors)


def _is_boundary_simplex(k: Complex) -> bool:
    """Whether ``k`` is the boundary of a (dim + 1)-simplex."""
    vs = sorted(k.vertices)
    return len(vs) == k.dim + 2 and k.maximal_faces == frozenset(
        itertools.combinations(vs, k.dim + 1)
    )


def is_normal_pseudomanifold(k: Complex) -> NormalityReport:
    pure = k.is_pure
    witnesses: dict = {}

    ridge_ok = True
    if pure and k.dim >= 1:
        bad = [r for r, fs in k.ridge_facet_map().items() if len(fs) != 2]
        if bad:
            ridge_ok = False
            witnesses["ridges"] = sorted(bad)[:10]
    else:
        ridge_ok = False

    strong = is_strongly_connected(k) if pure else False

    links_ok = True
    if pure and k.dim >= 1:
        bad_links = []
        for dim_face in range(-1, k.dim - 1):
            for face in sorted(k.faces(dim_face)):
                if not _complex_connected(k.link(face)):
                    bad_links.append(face)
        if bad_links:
            links_ok = False
            witnesses["disconnected_links"] = bad_links[:10]
    else:
        links_ok = False

    return NormalityReport(pure, ridge_ok, strong, links_ok, witnesses)


# -- homology over GF(2) -------------------------------------------------


def homology_gf2(k: Complex) -> tuple[int, ...]:
    """Reduced Betti numbers over the two-element field, dimensions 0..dim.

    Boundary matrices are eliminated as integer bitmasks; the dimension
    -1 augmentation row makes the zeroth number reduced.
    """
    d = k.dim
    if d < 0:
        return ()
    faces = {j: sorted(k.faces(j)) for j in range(d + 1)}
    index = {j: {f: i for i, f in enumerate(faces[j])} for j in range(d + 1)}

    ranks = [0] * (d + 2)
    ranks[0] = 1 if faces[0] else 0
    for j in range(1, d + 1):
        cols = []
        idx = index[j - 1]
        for f in faces[j]:
            mask = 0
            for sub in itertools.combinations(f, j):
                mask |= 1 << idx[sub]
            cols.append(mask)
        ranks[j] = _gf2_rank(cols)

    return tuple(len(faces[j]) - ranks[j] - ranks[j + 1] for j in range(d + 1))


def _gf2_rank(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for vec in columns:
        while vec:
            high = vec.bit_length() - 1
            other = pivots.get(high)
            if other is None:
                pivots[high] = vec
                rank += 1
                break
            vec ^= other
    return rank


# -- derived recognisers --------------------------------------------------


def is_stacked_sphere(k: Complex) -> bool:
    """Normal pseudomanifold with vanishing g_2; for dimension >= 3 that
    characterises iterated connected sums of simplex boundaries."""
    if k.dim < 3:
        raise DimensionTooSmall("stackedness test needs dimension >= 3")
    return is_normal_pseudomanifold(k).normal and _g2(k) == 0


def _sphere_certificate_3d(link: Complex, depth: int = 0) -> Optional[str]:
    """Constructive 3-sphere certificate, or None when undecided.

    Certified spheres are the stacked ones, plus anything reducible to
    certified spheres by inverse facet subdivisions and connected-sum
    splits along missing facets.
    """
    from .decompose import NotSplit, inverse_facet_subdivision, split_connected_sum
    from .separation import classify_missing_facet

    if depth > 64 or link.dim != 3:
        return None
    report = is_normal_pseudomanifold(link)
    if not report.normal:
        return None
    if _g2(link) == 0:
        return "stacked"
    for u in sorted(link.vertices):
        lk_u = link.link((u,))
        if (
            lk_u.dim == 2
            and _is_boundary_simplex(lk_u)
            and not link.has_face(lk_u.vertices)
        ):
            inner = _sphere_certificate_3d(inverse_facet_subdivision(link, u), depth + 1)
            if inner:
                return f"subdivide({u})->{inner}"
    for tau in sorted(link.missing_simplices(3)):
        cls = classify_missing_facet(link, tau)
        if cls.kind != "connected_sum_split":
            continue
        try:
            split = split_connected_sum(link, tau)
        except NotSplit:
            continue
        left = _sphere_certificate_3d(split.part_a, depth + 1)
        right = _sphere_certificate_3d(split.part_b, depth + 1)
        if left and right:
            return f"split({''.join(map(str, tau))})"
    return None


def classify_vertex(k: Complex, v: int) -> SingularityVerdict:
    """Decide whether the link of ``v`` is a triangulated sphere.

    Two-dimensional links are decided exactly through the Euler
    characteristic; three-dimensional links get a homology witness for
    singularity or a constructive sphere certificate, and otherwise the
    verdict is unknown.
    """
    if v not in k.vertices:
        raise UnknownVertex(f"vertex {v} not in complex")
    if k.dim not in (3, 4):
        raise ValueError("vertex classification is defined for dimensions 3 and 4")
    link = k.link((v,))

    if link.dim == 2:
        f = link.f_counts()
        chi = f[1] - f[2] + f[3]
        if _complex_connected(link) and chi == 2:
            return SingularityVerdict(v, "nonsingular", "surface with euler characteristic 2")
        return SingularityVerdict(v, "singular", f"closed surface with euler characteristic {chi}")

    betti = homology_gf2(link)
    if betti != (0, 0, 0, 1):
        return SingularityVerdict(v, "singular", f"link gf2 betti {betti}")
    cert = _sphere_certificate_3d(link)
    if cert:
        return SingularityVerdict(v, "nonsingular", cert)
    return SingularityVerdict(v, "unknown", "sphere-like homology but no constructive certificate")


def classify_vertices(k: Complex) -> dict[int, SingularityVerdict]:
    return {v: classify_vertex(k, v) for v in sorted(k.vertices)}


def singular_vertices(k: Complex) -> list[int]:
    return [v for v, verdict in classify_vertices(k).items() if verdict.singular]


def optimality_check(k: Complex, t: int) -> OptimalityResult:
    """Equality of g_2 and g_3 with the corresponding link values at ``t``."""
    if t not in k.vertices:
        raise UnknownVertex(f"vertex {t} not in complex")
    if k.dim != 4:
        raise ValueError("optimality check is defined for dimension 4")
    link = k.link((t,))
    return OptimalityResult(_g2(k) == _g2(link), _g3(k) == _g3(link))
