"""Forward constructions: simplex boundaries, cones, suspensions,
connected sums, handle additions, vertex and edge foldings, facet
subdivisions and stacked spheres.

Connected sums, handle additions, vertex folds and edge folds are one
move, made by one kernel: vertices of the target facet are relabeled to
their partners in the source facet, facets are deduplicated, and the
merged facet is deleted (a sum does it on the disjoint union of its
operands).  One admissibility check, parameterised by the size of the
face the two facets share (none, a vertex, an edge), serves the three
moves inside one complex.  Fresh vertices introduced by an operation
are ``max existing label + 1, + 2, ...`` unless the caller pins them,
which keeps every construction replayable from a script.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import (Complex, ComplexError, FaceNotPresent, Simplex, VertexOverlap,
                        _integer, fresh_labels, simplex)


class ConstructionError(ComplexError):
    pass


class VertexAlreadyPresent(ConstructionError):
    pass


class DimensionMismatch(ConstructionError):
    pass


class NotAFacet(ConstructionError):
    pass


class FacetsShareVertices(ConstructionError):
    pass


class InadmissibleIdentification(ConstructionError):
    """Handle addition whose identification would not stay simplicial."""


class InadmissibleFold(ConstructionError):
    pass


class SplitMix64:
    """Tiny deterministic PRNG: same seed, same stream, on any platform."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next64() % n

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _require_facet(k: Complex, facet: Iterable[int]) -> Simplex:
    f = simplex(facet)
    if f not in k.maximal_faces:
        raise NotAFacet(f"{f} is not a facet")
    return f


def _identify(parts: Iterable[Complex], mapping: Mapping[int, int], merged: Simplex) -> Complex:
    """Relabel target vertices to source labels in the union of the facets
    of ``parts``, dedupe, drop the merged facet.  Facets, and whole parts,
    holding no vertex the map moves are kept as they are.

    The parts have one dimension and the move is admissible, so no
    relabelled facet repeats a label: the result is trusted."""
    rev = {t: s for s, t in mapping.items() if s != t}
    glued: set[Simplex] = set()
    for k in parts:
        if rev.keys().isdisjoint(k.vertices):
            glued |= k.maximal_faces
        else:
            glued.update(f if rev.keys().isdisjoint(f) else tuple(sorted(rev.get(v, v) for v in f))
                         for f in k.maximal_faces)
    glued.discard(merged)
    return Complex._trusted(glued)


# -- elementary constructions ------------------------------------------


def boundary_simplex(n: int) -> Complex:
    """Boundary complex of the n-simplex on labels 0..n: an (n-1)-sphere."""
    if n < 1:
        raise ConstructionError("boundary_simplex needs n >= 1")
    return Complex._trusted(itertools.combinations(range(n + 1), n))


def cone(v: int, k: Complex) -> Complex:
    if v in k.vertices:
        raise VertexAlreadyPresent(f"vertex {v} already present")
    return Complex([f + (v,) for f in k.facets])


def one_vertex_suspension(k: Complex, v: int, apex: Optional[int] = None) -> Complex:
    """Suspension using ``v`` as one pole and a fresh vertex as the other.

    Facets are the cones of v over the facets avoiding v, plus the cone
    of the fresh apex over everything.
    """
    if v not in k.vertices:
        raise ComplexError(f"vertex {v} not in complex")
    u = fresh_labels(k, 1)[0] if apex is None else apex
    if u in k.vertices:
        raise VertexAlreadyPresent(f"apex {u} already present")
    facets = [f + (v,) for f in k.facets if v not in f]
    facets += [f + (u,) for f in k.facets]
    return Complex(facets)


def facet_subdivision(k: Complex, facet: Iterable[int], new_vertex: Optional[int] = None) -> Complex:
    """Replace a facet by the cone over its boundary from a fresh vertex.
    A ``new_vertex`` that is not an ``int`` is refused before any other
    check, and a negative one with the first facet made, f - f[0] + u."""
    if new_vertex is not None:
        _integer(new_vertex)
    f = _require_facet(k, facet)
    u = fresh_labels(k, 1)[0] if new_vertex is None else new_vertex
    if u < 0:
        raise ComplexError(f"vertex labels must be non-negative, got {(u,) + f[1:]}")
    if u in k.vertices:
        raise VertexAlreadyPresent(f"subdivision vertex {u} already present")
    coned = {tuple(sorted(set(f) - {drop} | {u})) for drop in f}
    return Complex._trusted(k.maximal_faces.difference((f,)) | coned)


# -- identifications ----------------------------------------------------


def connected_sum(k1: Complex, k2: Complex, pairing) -> Complex:
    """Glue two complexes along a facet pair and delete the merged facet."""
    mapping = dict(pairing)
    if k1.dim != k2.dim:
        raise DimensionMismatch(f"dimensions differ: {k1.dim} vs {k2.dim}")
    if k1.vertices & k2.vertices:
        raise VertexOverlap(f"summands share vertices {sorted(k1.vertices & k2.vertices)}")
    source = _require_facet(k1, mapping.keys())
    _require_facet(k2, mapping.values())
    return _identify((k1, k2), mapping, source)


def _pair_ok(k: Complex, y: int, z: int, shared) -> bool:
    """Whether y and z may be identified: z is not a neighbor of y and
    every common neighbor of y and z lies in the shared face.

    This is the whole per-pair condition of handle additions (shared
    face empty), vertex folds (a vertex x) and edge folds (an edge uv).
    In a fold, x (or u and v) lies in both facets and so is always a
    common neighbor; for a vertex fold the condition says that x is the
    only one.
    """
    ny = k.neighbors(y)
    return z not in ny and ny & k.neighbors(z) <= shared


def _check_admissible(k: Complex, facet1, facet2, pairing, size: int) -> tuple[bool, str]:
    """Admissibility of a handle (``size`` 0), vertex fold (1) or edge fold
    (2): the facets meet in ``size`` vertices (for a handle, with no edge
    of K joining them), and the pairing fixes that face, is a bijection
    f1 -> f2 and passes ``_pair_ok`` on every other pair."""
    f1 = _require_facet(k, facet1)
    f2 = _require_facet(k, facet2)
    shared = set(f1) & set(f2)
    if size == 0:
        if shared:
            raise FacetsShareVertices(f"facets share vertices {sorted(shared)}")
        edge = _linking_edge(k, f1, f2)
        if edge is not None:
            return False, f"edge {edge[0]}-{edge[1]} links the facets"
    elif len(shared) != size:
        face = "a single vertex" if size == 1 else "an edge"
        return False, f"facets intersect in {sorted(shared)}, not {face}"
    mapping = dict(pairing)
    if any(mapping.get(x) != x for x in shared):
        return False, f"shared face {sorted(shared)} is not mapped to itself"
    if sorted(mapping) != list(f1) or sorted(set(mapping.values())) != list(f2):
        return False, "pairing is not a bijection between the two facets"
    for y in f1:
        z = mapping[y]
        if y not in shared and not _pair_ok(k, y, z, shared):
            if z in k.neighbors(y):
                return False, f"identified vertices {y} and {z} are adjacent"
            extra = sorted(k.neighbors(y) & k.neighbors(z) - shared)
            return False, f"identified vertices {y} and {z} share neighbors {extra}"
    return True, "admissible"


def _linking_edge(k: Complex, f1: Simplex, f2: Simplex) -> Optional[tuple[int, int]]:
    """An edge of K from a vertex of f1 to a vertex of f2, or None."""
    for v in f1:
        linked = k.neighbors(v).intersection(f2)
        if linked:
            return v, min(linked)
    return None


def check_handle_admissible(k: Complex, facet1, facet2, pairing) -> tuple[bool, str]:
    """Disjoint facets, no edge of K joining them, and no common neighbors
    for identified pairs.

    Disjoint neighborhoods are what keep the identification injective
    away from the facets themselves: a vertex adjacent to both y and
    psi(y) would turn two distinct edges into one and break the exact
    face-count arithmetic of the operation.
    """
    return _check_admissible(k, facet1, facet2, pairing, 0)


def handle_addition(k: Complex, facet1, facet2, pairing) -> Complex:
    ok, reason = check_handle_admissible(k, facet1, facet2, pairing)
    if not ok:
        raise InadmissibleIdentification(reason)
    return _identify((k,), dict(pairing), simplex(facet1))


def check_vertex_fold_admissible(k: Complex, facet1, facet2, pairing) -> tuple[bool, str]:
    """Facets meeting in one fixed vertex x, with every other pair y, psi(y)
    non-adjacent and having x as their only common neighbor."""
    return _check_admissible(k, facet1, facet2, pairing, 1)


def vertex_fold(k: Complex, facet1, facet2, pairing) -> Complex:
    ok, reason = check_vertex_fold_admissible(k, facet1, facet2, pairing)
    if not ok:
        raise InadmissibleFold(reason)
    return _identify((k,), dict(pairing), simplex(facet1))


def check_edge_fold_admissible(k: Complex, facet1, facet2, pairing) -> tuple[bool, str]:
    """Facets meeting in one fixed edge uv; all short paths between an
    identified pair must run through u or v."""
    return _check_admissible(k, facet1, facet2, pairing, 2)


def edge_fold(k: Complex, facet1, facet2, pairing) -> Complex:
    ok, reason = check_edge_fold_admissible(k, facet1, facet2, pairing)
    if not ok:
        raise InadmissibleFold(reason)
    return _identify((k,), dict(pairing), simplex(facet1))


def fold_deltas(op: str, d: int) -> tuple[int, int]:
    """The exact change (C(w, 2), -C(w, 3)) of (g2, g3) when ``op`` is
    applied to a d-complex, for its width w: d + 2 for a handle
    addition, d + 1 for a vertex fold and d for an edge fold."""
    width = d + {"handle_addition": 2, "vertex_fold": 1, "edge_fold": 0}[op]
    return comb(width, 2), -comb(width, 3)


# -- admissible-pair searches -------------------------------------------

_HANDLE_ATTEMPTS = 400  # facet pairs a seeded handle search samples
# Matchings per table shape, filled by ``_star_counts``.  A shape is the
# table of a facet pair of a d-complex at a vertex or an edge: at most d
# rows and d columns, no row empty.  So pure complexes of dimension at
# most d add at most sum((2**n - 1)**n for n <= d) shapes: 50,978 for d <= 4.
_SHAPE_COUNTS: dict[tuple, int] = {}


def _count_matchings(rows) -> int:
    """Perfect matchings of a square 0/1 table given as bitmask rows (its
    permanent): the one counter of every fold search and draw.

    A column is any one bit.  Its one caller, ``_star_counts``, passes
    a live pair's partner rows cut to the second facet, whose bits
    number the face's link, the first time the pair's table shape is
    met.  It is a DP over the sets of columns the rows so far have
    taken; rows are read one at a time, and none after a row that
    leaves no way open."""
    ways = {0: 1}
    for row in rows:
        taken: dict[int, int] = {}
        for used, n in ways.items():
            free = row & ~used
            while free:
                bit = free & -free
                taken[used | bit] = taken.get(used | bit, 0) + n
                free ^= bit
        if not taken:
            return 0
        ways = taken
    return sum(ways.values())


def _admissible_bijections(k: Complex, f1: Simplex, f2: Simplex):
    """Bijections f1 -> f2 fixing the face the two facets share whose
    other pairs all pass ``_pair_ok``, in ``itertools.permutations``
    order.

    Pair verdicts are tabled once per facet pair, bit j of y's row set
    when y may go to the j-th of f2's other vertices, so each
    permutation costs a few lookups instead of a full admissibility
    check.
    """
    shared = set(f1) & set(f2)
    rest1 = [v for v in f1 if v not in shared]
    rest2 = [v for v in f2 if v not in shared]
    table = [sum(1 << j for j, z in enumerate(rest2) if _pair_ok(k, y, z, shared)) for y in rest1]
    for perm in itertools.permutations(range(len(rest2))):
        if all(row >> j & 1 for row, j in zip(table, perm)):
            mapping = {v: v for v in sorted(shared)}
            mapping.update(zip(rest1, (rest2[j] for j in perm)))
            yield mapping


def _fixed_face(k: Complex, size: int, fixed_face) -> set[int]:
    """The vertex set of a fixed face: () or ``size`` distinct vertices
    spanning a face of ``k``.  Refused before any search or draw."""
    fixed_face = tuple(fixed_face or ())
    face = set(fixed_face)
    if len(face) != len(fixed_face) or len(face) not in (0, size):
        kind = "vertex" if size == 1 else "edge"
        raise ValueError(f"a {kind} fold is fixed at () or {size} distinct "
                         f"vertices, not {fixed_face}")
    if face and not k.facets_through(face):
        raise FaceNotPresent(f"{tuple(sorted(face))} is not a face")
    return face


def _star_counts(k: Complex, face: set[int], avoid: Optional[int]):
    """The pairs of facets through ``face`` that miss ``avoid`` and meet
    exactly in it, in sorted (f1, f2) order, each with its number of
    admissible bijections when that is not 0.

    The link vertices of the face (those of its facets outside it) are
    numbered.  y's partner row is the bitmask of the z with
    ``_pair_ok(k, y, z, face)``: z is refused when it is a neighbor of y
    or of one of y's neighbors off the face, so the row is read off one
    bitmask of link neighbors per vertex.  ``verdicts[y]`` spells the
    row out, '1' at each partner's number.  Over the star's positions,
    ``at[z]`` holds the facets through z and ``reach[y]`` the facets
    that hold a partner of y.  The later facets in every ``reach`` of
    f1's link vertices are exactly the f2 that leave none of f1's rows
    empty and meet f1 only in the face: a facet through one of f1's link
    vertices y holds no partner of y, since its other vertices are y's
    neighbors and y is its own partner only when f1 is the face plus y.
    So only those live pairs are visited.  A pair's table is keyed by its
    shape, f2's columns of f1's verdicts, each facet in its own vertex
    order: it does not depend on how the link is numbered, so
    ``_count_matchings`` counts each shape once per process, in
    ``_SHAPE_COUNTS``.
    """
    facets = [f for f in k.facets_through(face) if avoid not in f]
    if len(facets) < 2:  # no pair, and a face that is a facet has no link
        return []
    rests = [[v for v in f if v not in face] for f in facets]
    index = {v: t for t, v in enumerate(dict.fromkeys(v for rest in rests for v in rest))}
    at = dict.fromkeys(index, 0)
    for j, rest in enumerate(rests):
        for v in rest:
            at[v] |= 1 << j
    near: dict[int, int] = {}
    for v, t in index.items():
        for w in k.neighbors(v):
            if w not in face:
                near[w] = near.get(w, 0) | 1 << t
    width = len(index)
    partner, verdicts, reach = {}, {}, {}
    for y in index:
        bad = near.get(y, 0)
        for w in k.neighbors(y):
            bad |= near.get(w, 0)
        partner[y] = ~bad & ((1 << width) - 1)
        verdicts[y] = f"{partner[y]:0{width}b}"[::-1]
        held = 0
        for ok, a in zip(verdicts[y], at.values()):
            if ok == "1":
                held |= a
        reach[y] = held
    columns = [itemgetter(*[index[z] for z in rest]) for rest in rests]
    counted = []
    for i, (f1, rest) in enumerate(zip(facets, rests)):
        live = ~0 << i + 1  # the later positions; the reach masks make it finite
        for y in rest:
            live &= reach[y]
        if not live:
            continue
        table = list(zip(*[verdicts[y] for y in rest]))
        while live:
            j = (live & -live).bit_length() - 1
            live ^= 1 << j
            shape = columns[j](table)
            n = _SHAPE_COUNTS.get(shape)
            if n is None:
                mask = sum(1 << index[z] for z in rests[j])
                n = _SHAPE_COUNTS[shape] = _count_matchings([partner[y] & mask for y in rest])
            if n:
                counted.append((f1, facets[j], n))
    return counted


def _counted_pairs(k: Complex, size: int, fixed_face, avoid: Optional[int]):
    """The facet pairs that miss ``avoid`` and meet in ``size`` vertices,
    or exactly in ``fixed_face`` when it is given, each with its number
    of admissible bijections when that is not 0: the one list behind
    every vertex- and edge-fold search and draw.

    At a fixed face it is ``_star_counts``.  Otherwise the vertices u
    are taken in order of first appearance in ``k.facets``.  A vertex
    fold's pairs at u are those of u's star; an edge fold's are those of
    the stars of the edges uw, for each w met after u, merged in sorted
    (f1, f2) order.  That is the order of the plain listing, which takes
    a pair from the first vertex group that meets it and lists a group's
    pairs sorted across all its edges.
    """
    face = _fixed_face(k, size, fixed_face)
    if face:
        return _star_counts(k, face, avoid)
    order = {v: i for i, v in enumerate(dict.fromkeys(v for f in k.facets for v in f))}
    counted = []
    for u, i in order.items():
        if size == 1:
            counted += _star_counts(k, {u}, avoid)
        else:
            counted += sorted(t for w in k.neighbors(u) if order[w] > i
                              for t in _star_counts(k, {u, w}, avoid))
    return counted


def _fold_triples(k: Complex, size: int, fixed_face):
    """Admissible fold triples on facet pairs meeting in ``size`` vertices,
    or only in ``fixed_face`` when it is given."""
    for f1, f2, _ in _counted_pairs(k, size, fixed_face, None):
        for mapping in _admissible_bijections(k, f1, f2):
            yield f1, f2, mapping


def find_vertex_folds(k: Complex, fixed_vertex: Optional[int] = None):
    """Yield admissible (facet1, facet2, mapping) vertex-fold triples."""
    yield from _fold_triples(k, 1, None if fixed_vertex is None else (fixed_vertex,))


def find_edge_folds(k: Complex, fixed_edge: Optional[tuple[int, int]] = None):
    yield from _fold_triples(k, 2, fixed_edge)


def find_handles(k: Complex, rng: Optional[SplitMix64] = None):
    """Yield admissible (facet1, facet2, mapping) handle triples, at most
    one per facet pair.

    With an rng, candidate pairs are sampled instead of scanned, which
    is the behaviour random build scripts want.
    """
    facets = list(k.facets)
    if rng is None:
        pairs = itertools.combinations(facets, 2)
    else:
        def sampled():
            for _ in range(_HANDLE_ATTEMPTS):
                f1 = rng.choice(facets)
                f2 = rng.choice(facets)
                if f1 < f2:
                    yield f1, f2
        pairs = sampled()
    for f1, f2 in pairs:
        if set(f1) & set(f2) or _linking_edge(k, f1, f2) is not None:
            continue
        for mapping in _admissible_bijections(k, f1, f2):
            yield f1, f2, mapping
            break


def random_admissible(kind: str, k: Complex, rng: SplitMix64, fixed: tuple[int, ...] = (),
                      avoid: Optional[int] = None):
    """A seeded admissible triple for ``kind``, or None.

    A vertex or edge fold is drawn uniformly from those at the ``fixed``
    vertex or edge (any, when it is empty) whose facets miss ``avoid``;
    a handle is the first one a sampled search finds.  A fixed face of
    the wrong size, or one that is not in ``k``, is refused before the
    draw, and so is a handle draw given a fixed face or an avoided
    vertex.

    Folds are counted, not listed: ``_counted_pairs`` gives each
    candidate facet pair with its number of admissible bijections, in
    the order of ``find_vertex_folds`` and ``find_edge_folds``.  One
    index is drawn from the total, and only the bijection at that index
    is built, so the draw, and the random stream after it, are those of
    drawing from the full list.
    """
    if kind == "handle":
        if fixed or avoid is not None:
            raise ValueError(f"a handle draw takes no fixed face and no avoided vertex, "
                             f"got fixed={fixed!r}, avoid={avoid!r}")
        return next(find_handles(k, rng=rng), None)
    if kind not in ("vertex_fold", "edge_fold"):
        raise ValueError(f"unknown kind {kind!r}")
    counted = _counted_pairs(k, 1 if kind == "vertex_fold" else 2, fixed, avoid)
    if not counted:
        return None
    i = rng.randrange(sum(n for *_, n in counted))
    for f1, f2, n in counted:
        if i < n:
            return f1, f2, next(itertools.islice(_admissible_bijections(k, f1, f2), i, None))
        i -= n


# -- stacked spheres ----------------------------------------------------


def _fresh_boundary(k: Complex) -> Complex:
    """Boundary of a (dim + 1)-simplex on the labels just above those of ``k``."""
    offset = max(k.vertices) + 1
    return Complex._trusted(itertools.combinations(range(offset, offset + k.dim + 2), k.dim + 1))


def _glue_fresh_boundary(k: Complex, rng: SplitMix64, fixed: tuple[int, ...],
                         src: Simplex) -> tuple[Complex, dict[int, int]]:
    """A fresh simplex boundary and the pairing that glues ``src`` to a
    random facet of it.

    The fixed vertices go to the first vertices of that facet and the
    rest of ``src`` in order to the rest.
    """
    summand = _fresh_boundary(k)
    target = summand.facets[rng.randrange(len(summand.facets))]
    rest = [v for v in src if v not in fixed]
    return summand, dict(zip(list(fixed) + rest, target))


def stacked_sphere(d: int, k: int, seed: int) -> Complex:
    """k-fold connected sum of boundary d+1-simplices with seeded random gluings."""
    if d < 2 or k < 1:
        raise ConstructionError("stacked_sphere needs d >= 2 and k >= 1")
    rng = SplitMix64(seed)
    current = boundary_simplex(d + 1)
    for _ in range(k - 1):
        summand = _fresh_boundary(current)
        source = rng.choice(current.facets)
        target = rng.choice(summand.facets)
        perm = rng.shuffle(list(target))
        current = connected_sum(current, summand, dict(zip(source, perm)))
    return current
