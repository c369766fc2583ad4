"""Finite simplicial complexes stored by their maximal faces.

Vertices are bare non-negative integers and simplices are strictly
increasing tuples of vertex labels, so every operation is exact and
deterministic.  A :class:`Complex` is immutable after construction;
its tables are computed on demand and cached, or, for the face tables,
handed in by the normality check that has just counted them.

One of them is the facet index, the sorted facets through each vertex,
built in one pass over the sorted ``facets``: ``facets_through`` reads
it for every "which facets contain this face?" in the library, ridges
included, so there is no separate ridge-to-facets map.  It is also the
one presence test: a face is present exactly when some maximal face
contains it, so ``has_face`` builds no face table, and the tables of
``faces(k)`` serve listings only.

Most complexes handled here are pure (all maximal faces of equal
dimension), which is what ``from_facets`` enforces.  Induced
subcomplexes may legitimately be non-pure, so the class itself only
requires its maximal faces to form an antichain.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, defaultdict
from typing import Iterable, Mapping, Optional


class ComplexError(ValueError):
    """Malformed complex data or an invalid query."""


class MixedDimension(ComplexError):
    """Facet lists of unequal length where a pure complex is required."""


class DuplicateVertexInFacet(ComplexError):
    pass


class OutOfRange(ComplexError):
    """Dimension argument outside the valid range for this complex."""


class FaceNotPresent(ComplexError):
    pass


class UnknownVertex(ComplexError):
    pass


class VertexOverlap(ComplexError):
    """Join operands share vertex labels."""


Simplex = tuple[int, ...]


def _integer(value) -> int:
    """``value`` if it is an ``int``; booleans, floats and strings raise."""
    if type(value) is not int:
        raise ComplexError(f"expected an integer, got {value!r}")
    return value


def _integer_rows(rows: list) -> Iterable[tuple[int, ...]]:
    """``rows`` when all their labels are ``int``; otherwise the rows one
    at a time, each refused at its first label ``_integer`` refuses, so a
    row's other checks run before a later row's labels are refused."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        return rows
    return (tuple(map(_integer, row)) for row in rows)


def _faces(facets: Iterable[Simplex], size: int) -> Iterable[Simplex]:
    """Every ``size``-subset of every facet, once per facet."""
    return itertools.chain.from_iterable(map(itertools.combinations, facets, itertools.repeat(size)))


def _debug() -> bool:
    """Whether ``PSF_DEBUG_VERIFY=1`` turns the library's debug oracles on."""
    return os.environ.get("PSF_DEBUG_VERIFY") == "1"


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalise an iterable of labels into a sorted simplex tuple."""
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise DuplicateVertexInFacet(f"repeated vertex in {vs}")
    if vs and vs[0] < 0:
        raise ComplexError(f"vertex labels must be non-negative, got {vs}")
    return vs


def _antichain(faces: frozenset[Simplex]) -> frozenset[Simplex]:
    """The faces of ``faces`` contained in no other, kept by a pass over
    them longest first; the order the result iterates in is unspecified."""
    kept: list[set[int]] = []
    out: list[Simplex] = []
    for f in sorted(faces, key=len, reverse=True):
        fs = set(f)
        if any(fs < k for k in kept):
            continue
        kept.append(fs)
        out.append(f)
    return frozenset(out)


class Complex:
    """A simplicial complex given by its maximal faces.

    The complex owns no geometric data: it is the downward closure of
    ``maximal_faces``.  The empty simplex ``()`` is a face of every
    complex; ``Complex([()])`` is the complex containing only it.

    ``Complex(...)`` and ``from_facets`` validate their input: each facet
    is checked for labels that are not ``int``, sorted and checked for
    repeated and negative labels, and ``from_facets`` wants one length.
    A facet set the library made itself (simplex boundaries, gluings,
    folds, subdivisions, links and stars, and the parts of the inverse
    operations) is canonical whether or not its source complex is pure,
    and so are the sorted rows ``fileio.parse_complex`` has read, so they
    go through the private ``_trusted``, which skips the per-facet
    checks.  Both routes end in one body, ``_set_up``.

    Only the facet set is behaviour: ``maximal_faces`` iterates in an
    unspecified order.  ``relabel``, ``build.cone`` and
    ``build.one_vertex_suspension`` read the sorted ``facets``, so their
    refusals name the first offending facet in sorted order.
    """

    __slots__ = ("_maximal", "_dim", "_vertices", "_faces", "_nbrs", "_facets", "_through",
                 "_pure")

    def __init__(self, maximal_faces: Iterable[Iterable[int]]):
        self._set_up(map(simplex, _integer_rows(list(map(tuple, maximal_faces)))))

    @classmethod
    def _trusted(cls, facets: Iterable[Simplex]) -> "Complex":
        """``Complex(facets)`` without its ``simplex()`` per facet, for facets
        the library made or parsed itself: sorted tuples of distinct
        non-negative labels.  Only ``PSF_DEBUG_VERIFY=1`` lists them, to
        check each as ``__init__`` would (``simplex`` raises on a repeated
        or negative label) and raise on one it would have changed."""
        if _debug():
            facets = list(facets)
            for f in facets:
                if simplex(f) != f:
                    raise ComplexError(f"trusted facet {f} is not sorted")
        self = cls.__new__(cls)
        self._set_up(facets)
        return self

    def _set_up(self, faces: Iterable[Simplex]) -> None:
        """The one construction body: freeze the faces once, run the
        containment pass on that frozenset only when lengths differ, and
        read the dimension and purity off what is left."""
        maximal = frozenset(faces) or frozenset({()})
        lengths = set(map(len, maximal))
        if len(lengths) > 1:
            maximal = _antichain(maximal)
            lengths = set(map(len, maximal))
        self._maximal = maximal
        self._dim = max(lengths) - 1
        self._pure = len(lengths) == 1
        self._vertices = frozenset(itertools.chain.from_iterable(maximal))
        self._faces: dict[int, frozenset[Simplex]] = {}
        self._nbrs: Optional[dict[int, frozenset[int]]] = None
        self._facets: Optional[tuple[Simplex, ...]] = None
        self._through: Optional[defaultdict[int, list[Simplex]]] = None

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """Build a pure complex from a non-empty list of equal-length facets.

        Each row is checked for emptiness and repeats, then for its
        length, then, row by row, for labels that are not ``int``, and
        sorted and checked for negative labels, once; the sorted rows go
        to ``_trusted``."""
        rows = [list(f) for f in facets]
        if not rows:
            raise ComplexError("no facets")
        for row in rows:
            if not row:
                raise ComplexError("empty facet")
            if len(set(row)) != len(row):
                raise DuplicateVertexInFacet(f"repeated vertex in facet {row}")
        lengths = {len(r) for r in rows}
        if len(lengths) > 1:
            raise MixedDimension(f"facet lengths differ: {sorted(lengths)}")
        sorted_rows = []
        for row in _integer_rows(rows):
            vs = tuple(sorted(row))
            if vs[0] < 0:
                raise ComplexError(f"vertex labels must be non-negative, got {vs}")
            sorted_rows.append(vs)
        return cls._trusted(sorted_rows)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def maximal_faces(self) -> frozenset[Simplex]:
        return self._maximal

    @property
    def facets(self) -> tuple[Simplex, ...]:
        """Maximal faces in sorted order."""
        if self._facets is None:
            self._facets = tuple(sorted(self._maximal))
        return self._facets

    @property
    def is_pure(self) -> bool:
        return self._pure

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Complex) and self._maximal == other._maximal

    def __hash__(self) -> int:
        return hash(self._maximal)

    def __repr__(self) -> str:
        return f"Complex(dim={self._dim}, vertices={len(self._vertices)}, maximal={len(self._maximal)})"

    def faces(self, k: int) -> frozenset[Simplex]:
        """All faces of dimension ``k``; ``faces(-1)`` is ``{()}``."""
        if k < -1 or k > self._dim:
            raise OutOfRange(f"no faces of dimension {k} in a {self._dim}-complex")
        if k == -1:
            return frozenset({()})
        cached = self._faces.get(k)
        if cached is None:
            cached = self._faces[k] = frozenset(_faces(self._maximal, k + 1))
        return cached

    def _adopt_faces(self, tables: Mapping[int, Iterable[Simplex]]) -> None:
        """Cache ``tables``, dimension -> all faces of that dimension as a
        caller enumerated them; a dimension already cached keeps its own."""
        for j, faces in tables.items():
            if j not in self._faces:
                self._faces[j] = frozenset(faces)

    def f_counts(self) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_dim)."""
        return (1,) + tuple(len(self.faces(k)) for k in range(self._dim + 1))

    def has_face(self, face: Iterable[int]) -> bool:
        return bool(self.facets_through(simplex(face)))

    def neighbors(self, v: int) -> frozenset[int]:
        if self._nbrs is None:
            nbrs: dict[int, set[int]] = {u: set() for u in self._vertices}
            if self._dim >= 1:
                for a, b in self.faces(1):
                    nbrs[a].add(b)
                    nbrs[b].add(a)
            self._nbrs = {u: frozenset(s) for u, s in nbrs.items()}
        if v not in self._nbrs:
            raise UnknownVertex(f"vertex {v} not in complex")
        return self._nbrs[v]

    def facets_through(self, face: Iterable[int]) -> tuple[Simplex, ...]:
        """The maximal faces that contain ``face``, sorted: all for ``()``,
        none for an absent face.  A face of two or more vertices filters
        the smallest group of its vertices in the facet index."""
        vs = set(face)
        if not vs:
            return self.facets
        if self._through is None:
            self._through = defaultdict(list)
            for f in self.facets:
                for v in f:
                    self._through[v].append(f)
        first = min(vs, key=lambda v: len(self._through.get(v, ())))
        group = self._through.get(first, ())
        for v in vs - {first}:
            group = [f for f in group if v in f]
        return tuple(group)

    # -- derived complexes ---------------------------------------------

    def link(self, face: Iterable[int]) -> "Complex":
        s = simplex(face)
        through = self.facets_through(s)
        if not through:
            raise FaceNotPresent(f"{s} is not a face")
        link = [tuple(v for v in f if v not in s) for f in through]
        return Complex._trusted(link)

    def star(self, face: Iterable[int]) -> "Complex":
        s = simplex(face)
        through = self.facets_through(s)
        if not through:
            raise FaceNotPresent(f"{s} is not a face")
        return Complex._trusted(through)

    def induced(self, vertex_set: Iterable[int]) -> "Complex":
        vs = set(vertex_set)
        missing = vs - self._vertices
        if missing:
            raise UnknownVertex(f"vertices {sorted(missing)} not in complex")
        candidates = [tuple(v for v in f if v in vs) for f in self._maximal]
        return Complex([c for c in candidates if c] or [()])

    def skeleton(self, k: int) -> "Complex":
        if k < 0 or k > self._dim:
            raise OutOfRange(f"skeleton dimension {k} outside [0, {self._dim}]")
        acc: set[Simplex] = set()
        for f in self._maximal:
            if len(f) <= k + 1:
                acc.add(f)
            else:
                acc.update(itertools.combinations(f, k + 1))
        return Complex(acc)

    def missing_simplices(self, k: int) -> frozenset[Simplex]:
        """All k-simplices on the vertex set whose boundary is present but which are absent.

        ``k`` may exceed the dimension by one, which finds missing
        top-dimensional simplices above the facets.  Each candidate is
        met once, as a face of dimension ``k - 1`` and an apex above
        its largest label.  For ``k >= 2`` every edge of the candidate
        lies in its boundary, so the apex is a common neighbour of the
        face's vertices.
        """
        if k < 1 or k > self._dim + 1:
            raise OutOfRange(f"missing-simplex dimension {k} outside [1, {self._dim + 1}]")
        lower = self.faces(k - 1)
        present = self.faces(k) if k <= self._dim else frozenset()
        found: set[Simplex] = set()
        for base in lower:
            if k == 1:
                apexes = self._vertices
            else:
                apexes = frozenset.intersection(*map(self.neighbors, base))
            for v in apexes:
                if v <= base[-1]:
                    continue
                cand = base + (v,)
                if cand not in present and all(
                    sub in lower for sub in itertools.combinations(cand, k)
                ):
                    found.add(cand)
        return frozenset(found)

    def relabel(self, mapping: Mapping[int, int]) -> "Complex":
        """Apply an injective vertex relabeling."""
        image = [mapping.get(v, v) for v in self._vertices]
        if len(set(image)) != len(image):
            raise ComplexError("relabeling is not injective on the vertex set")
        return Complex([tuple(mapping.get(v, v) for v in f) for f in self.facets])


def from_facets(facets: Iterable[Iterable[int]]) -> Complex:
    return Complex.from_facets(facets)


def join(k1: Complex, k2: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets."""
    overlap = k1.vertices & k2.vertices
    if overlap:
        raise VertexOverlap(f"operands share vertices {sorted(overlap)}")
    return Complex([f + g for f in k1.maximal_faces for g in k2.maximal_faces])


def fresh_labels(k: Complex, count: int) -> list[int]:
    """Deterministic unused vertex labels: max existing + 1, + 2, ..."""
    base = max(k.vertices, default=-1) + 1
    return list(range(base, base + count))


# -- isomorphism -------------------------------------------------------


def _colors(k: Complex) -> dict[int, int]:
    """Stable Weisfeiler-style colour classes of the vertices of ``k``,
    each named by a hash of its signature.

    A vertex starts from its degree, its facet sizes and the f-vector
    of its link.  Each round names it by its colour and its neighbours'
    sorted colours, until a round splits no class.  Hashes of int tuples
    are the same in every process, so the sorted colours are an
    isomorphism invariant; a hash collision can only merge classes.
    """
    # The faces of the link of v are the faces through v less v, up to
    # the size of the largest maximal face through v.  One C-level count
    # per face size; above dimension 0 each top face is maximal.
    top = k.dim + 1
    through = {j + 1: Counter(itertools.chain.from_iterable(k.faces(j))) for j in range(1, top)}
    maximal = [(size, through[size] if size == top > 1 else Counter(itertools.chain.from_iterable(
                   f for f in k.maximal_faces if len(f) == size)))
               for size in sorted(set(map(len, k.maximal_faces)))]
    colors = {}
    for v in k.vertices:
        profile = tuple(itertools.chain.from_iterable(
            itertools.repeat(size, counts[v]) for size, counts in maximal))
        link_f = (1, *(through[size][v] for size in range(2, profile[-1] + 1)))
        colors[v] = hash((len(k.neighbors(v)), profile, link_f))
    for _ in range(len(k.vertices) + 1):
        new = {v: hash((c, tuple(sorted(map(colors.__getitem__, k.neighbors(v))))))
               for v, c in colors.items()}
        stable = len(set(new.values())) == len(set(colors.values()))
        colors = new
        if stable:
            break
    return colors


def is_isomorphic(k1: Complex, k2: Complex) -> Optional[dict[int, int]]:
    """A vertex bijection carrying maximal faces onto maximal faces, or None.

    Each complex's colour classes (``_colors``) prune the search; a
    backtracking matcher on an explicit stack finishes it.  Exact at
    the tens-of-vertices scale this library targets.
    """
    if k1.dim != k2.dim or len(k1.vertices) != len(k2.vertices):
        return None
    if sorted(map(len, k1.maximal_faces)) != sorted(map(len, k2.maximal_faces)):
        return None
    if k1.f_counts() != k2.f_counts():
        return None
    c1, c2 = _colors(k1), _colors(k2)
    if sorted(c1.values()) != sorted(c2.values()):
        return None

    by_color: dict[int, list[int]] = {}
    for v, c in c2.items():
        by_color.setdefault(c, []).append(v)

    verts1 = sorted(k1.vertices, key=lambda v: (len(by_color[c1[v]]), v))
    facets2 = k2.maximal_faces

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        nv, nw = k1.neighbors(v), k2.neighbors(w)
        for u, x in mapping.items():
            if (u in nv) != (x in nw):
                return False
        # every fully mapped maximal face through v must land on one of k2's
        for f in k1.facets_through((v,)):
            img = [mapping.get(u) for u in f if u != v]
            if None in img:
                continue
            if tuple(sorted(img + [w])) not in facets2:
                return False
        return True

    # Depth-first over verts1, one candidate iterator per mapped vertex,
    # so the Python stack does not grow with the number of vertices.
    tries: list = []
    while len(mapping) < len(verts1):
        v = verts1[len(mapping)]
        if len(tries) == len(mapping):
            tries.append(iter(by_color[c1[v]]))
        w = next((w for w in tries[-1] if w not in used and consistent(v, w)), None)
        if w is not None:
            mapping[v] = w
            used.add(w)
            continue
        tries.pop()
        if not mapping:
            return None
        used.discard(mapping.popitem()[1])
    assert {tuple(sorted(mapping[u] for u in f)) for f in k1.maximal_faces} == set(facets2)
    return dict(mapping)
