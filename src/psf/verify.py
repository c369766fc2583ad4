"""Structural verification: purity, pseudomanifold and normality checks,
homology over the two-element field, stacked-sphere recognition,
singular-vertex classification and optimality certificates.

Sphere recognition for 3-dimensional links is deliberately three-valued.
The certified 3-spheres are the stacked ones: normal pseudomanifolds
with g2 = f1 - 4 f0 + 10 = 0.  Reducing a link by inverse facet
subdivisions and connected-sum splits certifies nothing more, because
an inverse subdivision removes one vertex and its four edges, leaving
g2 unchanged, and a split shares only the four vertices and six edges
of the missing facet between its parts, so g2 adds up over them; every
link reducible to simplex boundaries therefore already has g2 = 0.  A
link with sphere homology and g2 > 0 is reported as unknown rather than
guessed.

The stacked certificate is tried before homology.  By Kalai's lower
bound theorem (Rigidity and the lower bound theorem I, Invent. Math.
1987) a normal pseudomanifold of dimension >= 3 has g2 >= 0, with
equality exactly for the stacked spheres, so a link that earns the
certificate has the homology of a sphere and the order changes no
verdict; only the links that miss it pay for homology.  Every verdict
comes from one body, ``_classify``, on a link proven normal: a
triangulated (d - 1)-sphere is a normal (d - 1)-pseudomanifold (Bagchi
and Datta, below), so ``classify_vertex`` calls a link singular when
``is_normal_pseudomanifold`` fails on it.  The link of a vertex in a
normal pseudomanifold is itself normal, since lk(s, lk(v)) = lk(s + v),
so classifying the vertices of a complex the caller has just proven
normal skips that proof, and builds no link where
face counts decide: the link of v has deg v vertices, one edge per
triangle through v and one top face per facet through v, so
g2(lk v) = (triangles through v) - 4 deg v + 10 on a 4-complex, and
chi(lk v) = deg v - (triangles through v) + (facets through v) on a
3-complex, whose vertex links are connected.

The normality check gives each vertex one bit through a dense index
and decides link connectivity by merging bitmasks: each facet through
a face joins the mask reached so far once it meets it off the face,
pass after pass, and the link is connected when no facet is left over.
Most faces need no merge, by the small-link lemma: let K be a pure
d-complex whose every ridge lies in exactly two facets, and s a face
of at most d - 1 vertices, so lk s has dimension j = d - |s| >= 1.
Every ridge of lk s lies in exactly two facets of lk s, since
r + s is a ridge of K.  A facet g of lk s has j + 1 ridges, and the
facets across them are distinct and differ from g, since any two
ridges of g span g; all lie in g's component.  So each component of
lk s has at least j + 2 facets, and a disconnected lk s at least
2(d - |s| + 2): a face in fewer facets is proven connected, not
sampled.  With s empty, lk s = K needs 2(d + 2) facets to fall apart.
The facet-graph cut for strong connectivity runs only when some link
is disconnected: a pure complex whose links, that of the empty face
included, are all connected is strongly connected (Bagchi and Datta,
Lower bound theorem for normal pseudomanifolds, Expo. Math. 2008).
The same argument gives the homology of a link already proven normal
from one rank: a normal 3-pseudomanifold is connected and its only
top cycle over GF(2) is the sum of all facets, so only the rank of the
boundary map on triangles is left to compute (``_normal_betti``), with
``homology_gf2`` as its oracle under ``PSF_DEBUG_VERIFY=1``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .complexes import Complex, Simplex, UnknownVertex, _debug, _faces
from .enumeration import DimensionTooSmall, g_from_counts
from .enumeration import g2 as _g2
from .enumeration import g3 as _g3


class NormalityReport(NamedTuple):
    pure: bool
    ridge_degrees_ok: bool
    strongly_connected: bool
    links_connected: bool
    witnesses: dict = {}  # one dict shared by every default; the library passes its own

    @property
    def normal(self) -> bool:
        return (
            self.pure
            and self.ridge_degrees_ok
            and self.strongly_connected
            and self.links_connected
        )


class SingularityVerdict(NamedTuple):
    vertex: int
    status: str  # "nonsingular" | "singular" | "unknown"
    certificate: str

    @property
    def singular(self) -> bool:
        return self.status == "singular"


class OptimalityResult(NamedTuple):
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
    return all(n == 2 for n in _ridge_degrees(k).values())


def _cut_components(facets: Iterable[Simplex], barrier: set[int]) -> list[frozenset[Simplex]]:
    """Components of the facet graph (facets sharing a ridge are adjacent)
    after deleting every adjacency whose shared ridge lies inside
    ``barrier``, ordered by their smallest facet.  ``facets`` may be link
    residues or one side of a cut rather than a ``Complex``, so the first
    facet through each ridge is kept in a table of its own."""
    label = {f: i for i, f in enumerate(facets)}
    members = {i: [f] for f, i in label.items()}
    first_through: dict[Simplex, Simplex] = {}
    for f in label:
        for r in itertools.combinations(f, len(f) - 1):
            g = first_through.setdefault(r, f)
            if g is f or barrier.issuperset(r):
                continue
            small, big = label[f], label[g]
            if small == big:
                continue
            if len(members[small]) > len(members[big]):
                small, big = big, small
            for h in members[small]:
                label[h] = big
            members[big] += members.pop(small)
    return sorted((frozenset(m) for m in members.values()), key=min)


def is_strongly_connected(k: Complex) -> bool:
    """Connectivity of the facet graph with ridge-sharing adjacency.
    Points share the empty ridge, which the cut treats as a barrier, so
    a complex below dimension 1 counts as connected without a cut."""
    return k.dim < 1 or len(_cut_components(k.maximal_faces, set())) == 1


def _is_boundary_simplex(k: Complex) -> bool:
    """Whether ``k`` is the boundary of a (dim + 1)-simplex."""
    vs = sorted(k.vertices)
    return len(vs) == k.dim + 2 and k.maximal_faces == frozenset(
        itertools.combinations(vs, k.dim + 1)
    )


def is_normal_pseudomanifold(k: Complex) -> NormalityReport:
    """Purity, ridge degrees, strong connectivity and connected links.

    No link is built.  One C-level counter per face size gives the ridge
    degrees and the facets through each face of dimension at most
    dim - 2, the empty face included.  Each vertex gets one bit through a
    dense index and keeps the masks of its star.  A face's link is
    connected exactly when the masks through it, read off its smallest
    vertex star, are one piece less the face (``_masks_connected``).
    When no ridge is bad, a face s in fewer than 2(dim - |s| + 2) facets
    (``_fewest_to_split``) is proven connected by the small-link lemma
    of the module docstring, not sampled, and only ``PSF_DEBUG_VERIFY=1``
    merges it, raising ``AssertionError`` if the lemma fails.  Witnesses
    go by dimension, then label.  The facet-graph cut runs only when some
    link is disconnected (Bagchi and Datta, module docstring).  The
    counted faces become ``k``'s face tables of dimensions 0 to dim - 1.
    """
    pure = k.is_pure
    if not pure or k.dim < 1:
        return NormalityReport(pure, False, pure, False, {})
    d, witnesses, facets = k.dim, {}, k.maximal_faces
    debug = _debug()

    ridges = _ridge_degrees(k)
    bad_ridges = [r for r, n in ridges.items() if n != 2]
    if bad_ridges:
        witnesses["ridges"] = sorted(bad_ridges)[:10]

    bit = _bits(k.vertices)
    masks = [sum(map(bit.__getitem__, f)) for f in facets]
    star: dict[int, list[int]] = {v: [] for v in k.vertices}
    for f, m in zip(facets, masks):
        for v in f:
            star[v].append(m)
    counts = [{(): len(masks)}, {(v,): len(ms) for v, ms in star.items()}]
    counts += [Counter(_faces(facets, size)) for size in range(2, d)]
    bad_links = []
    for size, table in enumerate(counts[:d]):
        fewest = 0 if bad_ridges else _fewest_to_split(d, size)
        for face, n in table.items():
            if n < fewest and not debug:
                continue
            face_mask = sum(map(bit.__getitem__, face))
            group = min(map(star.__getitem__, face), key=len, default=masks)
            if not _masks_connected([m for m in group if m & face_mask == face_mask], face_mask):
                if n < fewest:
                    raise AssertionError(f"the link of {face} lies in {n} < {fewest} facets "
                                         "but is disconnected")
                bad_links.append(face)
    bad_links.sort(key=lambda face: (len(face), face))
    if bad_links:
        witnesses["disconnected_links"] = bad_links[:10]
    k._adopt_faces({**dict(enumerate(counts[1:d])), d - 1: ridges})

    links_ok = not bad_links
    strong = links_ok or is_strongly_connected(k)
    return NormalityReport(pure, not bad_ridges, strong, links_ok, witnesses)


def _fewest_to_split(d: int, size: int) -> int:
    """The fewest facets through a face of ``size`` vertices with a
    disconnected link when every ridge has degree 2 (small-link lemma)."""
    return 2 * (d - size + 2)


def _ridge_degrees(k: Complex) -> Counter:
    """Ridge -> the number of facets of the pure complex ``k`` through it."""
    return Counter(_faces(k.maximal_faces, k.dim))


def _bits(vertices: Iterable[int]) -> dict[int, int]:
    """One bit per vertex, numbered densely, never by label: a label of
    10**9 would otherwise make masks of 125 MB."""
    return {v: 1 << i for i, v in enumerate(vertices)}


def _masks_connected(masks: list[int], face_mask: int) -> bool:
    """Whether vertex sets that all hold ``face_mask``, given as bitmasks,
    are one connected piece once the face is taken out of each, two
    sets being joined when they meet off the face: every set that does
    so with the reached mask is merged into it, pass after pass, until
    a pass merges nothing."""
    reached, *rest = masks
    while rest:
        left = []
        for m in rest:
            if m & reached != face_mask:
                reached |= m
            else:
                left.append(m)
        if len(left) == len(rest):
            return False
        rest = left
    return True


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


def _normal_betti(k: Complex) -> tuple[int, int, int, int]:
    """``homology_gf2`` of a normal 3-pseudomanifold, from one rank.

    Let r2 be the rank of the boundary map from triangles to edges over
    GF(2).  A normal pseudomanifold is connected, so b0 = 0 and the
    augmented boundary map on edges has rank f0 - 1.  A 3-chain is a
    cycle exactly when, at every triangle, it holds both or neither of
    the two facets through it; the facet graph is connected (a normal
    pseudomanifold is strongly connected, Bagchi and Datta 2008), so the
    only cycles are 0 and the sum of all facets, which is one (Munkres,
    Elements of Algebraic Topology, 1984).  So b3 = 1 and the boundary
    map on facets has rank f3 - 1, which leaves
    b1 = (f1 - (f0 - 1)) - r2 and b2 = (f2 - r2) - (f3 - 1).  Under
    ``PSF_DEBUG_VERIFY=1`` the result is compared with ``homology_gf2``
    and a difference raises ``AssertionError``.
    """
    _, f0, f1, f2, f3 = k.f_counts()
    edge = _bits(k.faces(1))
    r2 = _gf2_rank([edge[(a, b)] | edge[(a, c)] | edge[(b, c)] for a, b, c in k.faces(2)])
    betti = (0, f1 - f0 + 1 - r2, f2 - r2 - f3 + 1, 1)
    if _debug() and betti != homology_gf2(k):
        raise AssertionError(f"one-rank betti {betti} differ from homology_gf2 {homology_gf2(k)}")
    return betti


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
    return _g2(k) == 0 and is_normal_pseudomanifold(k).normal


def classify_vertex(k: Complex, v: int) -> SingularityVerdict:
    """Decide whether the link of ``v`` is a triangulated sphere.

    A link that is not a normal (dim - 1)-pseudomanifold is singular.
    Otherwise two-dimensional links are decided exactly through the
    Euler characteristic; three-dimensional links get the certificate
    ``"stacked"`` or a homology witness for singularity, and otherwise
    the verdict is unknown.
    """
    if v not in k.vertices:
        raise UnknownVertex(f"vertex {v} not in complex")
    if k.dim not in (3, 4):
        raise ValueError("vertex classification is defined for dimensions 3 and 4")
    link = k.link((v,))
    if link.dim != k.dim - 1 or not is_normal_pseudomanifold(link).normal:
        return SingularityVerdict(v, "singular", f"link is not a normal {k.dim - 1}-pseudomanifold")
    return _classify(v, link)


def classify_vertices(k: Complex) -> dict[int, SingularityVerdict]:
    return {v: classify_vertex(k, v) for v in sorted(k.vertices)}


def _classify_normal_vertices(k: Complex, given: Optional[dict] = None
                              ) -> dict[int, SingularityVerdict]:
    """``classify_vertices`` for a complex the caller has just proven a
    normal pseudomanifold, whose vertex links are therefore normal.
    The verdicts are read off one count over the triangles (see the
    module docstring); only the links of a 4-complex with g2 > 0 are
    built, for their homology, and ``given`` verdicts are taken as they are."""
    triangles = Counter(itertools.chain.from_iterable(k.faces(2))) if k.dim in (3, 4) else Counter()
    verdicts = {}
    for v in sorted(k.vertices):
        degree = len(k.neighbors(v))
        if given and v in given:
            verdicts[v] = given[v]
        elif k.dim == 3:
            verdicts[v] = _surface_verdict(v, degree - triangles[v] + len(k.facets_through((v,))))
        elif k.dim == 4 and g_from_counts(3, degree, triangles[v])[0] == 0:
            verdicts[v] = SingularityVerdict(v, "nonsingular", "stacked")
        else:
            verdicts[v] = _classify(v, k.link((v,)))
    return verdicts


def _surface_verdict(v: int, chi: int) -> SingularityVerdict:
    if chi == 2:
        return SingularityVerdict(v, "nonsingular", "surface with euler characteristic 2")
    return SingularityVerdict(v, "singular", f"closed surface with euler characteristic {chi}")


def _classify(v: int, link: Complex, homology: Optional[tuple[int, int]] = None
              ) -> SingularityVerdict:
    """The verdict at ``v`` from its link, which the caller builds and
    has proven a normal 2- or 3-pseudomanifold; ``homology`` is its GF(2)
    (b1, b2) where the caller knows them (b0 = 0 and b3 = 1)."""
    if link.dim == 2:
        f = link.f_counts()
        return _surface_verdict(v, f[1] - f[2] + f[3])
    if _g2(link) == 0:
        return SingularityVerdict(v, "nonsingular", "stacked")
    betti = _normal_betti(link) if homology is None else (0, *homology, 1)
    if betti != (0, 0, 0, 1):
        return SingularityVerdict(v, "singular", f"link gf2 betti {betti}")
    return SingularityVerdict(v, "unknown", "sphere-like homology but no constructive certificate")


def singular_vertices(k: Complex) -> list[int]:
    return [v for v, verdict in classify_vertices(k).items() if verdict.singular]


def optimality_check(k: Complex, t: int) -> OptimalityResult:
    """Equality of g_2 and g_3 with the corresponding link values at ``t``."""
    if t not in k.vertices:
        raise UnknownVertex(f"vertex {t} not in complex")
    if k.dim != 4:
        raise ValueError("optimality check is defined for dimension 4")
    g2_k, g2_link, g3_k, g3_link = _optimality_numbers(k, k.link((t,)))
    return OptimalityResult(g2_k == g2_link, g3_k == g3_link)


def _optimality_numbers(k: Complex, link: Complex) -> tuple[int, int, int, int]:
    """(g2(k), g2(link), g3(k), g3(link)) for the link of a vertex of k."""
    return _g2(k), _g2(link), _g3(k), _g3(link)
