"""The inverse engine: connected-sum splitting, vertex and edge
unfolding, inverse facet subdivision, suspension recognition, and the
decomposition loop that reduces an optimal normal 4-pseudomanifold to
certified leaves.

Every inverse operation records the exact forward operation that
undoes it, so a decomposition tree replays to the input complex with
identical vertex labels, not merely up to isomorphism.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .complexes import (Complex, ComplexError, Simplex, UnknownVertex, _debug, _faces, fresh_labels,
                        simplex)
from .build import InadmissibleFold, edge_fold, fold_deltas, one_vertex_suspension, vertex_fold
from .buildscript import SCRIPT_VERSION, ScriptError, _integer, _operand_keys, _run_script, replay
from .enumeration import g2 as _g2
from .separation import (
    PreconditionUnmet,
    SeparationReport,
    SideAssignmentInconsistent,
    _oriented_sides,
    classify_missing_facet,
    require_missing_facet,
)
from .verify import (
    _classify,
    _classify_normal_vertices,
    _cut_components,
    _is_boundary_simplex,
    _normal_betti,
    _optimality_numbers,
    is_normal_pseudomanifold,
    optimality_check,
)


class DecompositionError(ComplexError):
    pass


class LinkNotSimplexBoundary(DecompositionError):
    pass


class SimplexAlreadyPresent(DecompositionError):
    """The reinsertion target already exists; this is the contradiction
    branch of the reduction argument and signals invalid input."""


class MinimalComplex(DecompositionError):
    pass


class NotSplit(DecompositionError):
    """The global cut along the missing facet left one piece: handle case."""


class NotOptimal(DecompositionError):
    pass


class UnknownSingularity(DecompositionError):
    pass


class ModeMismatch(DecompositionError):
    pass


class MalformedTree(DecompositionError):
    pass


MODE_ONE = "one-singularity"
MODE_SUSPENSION = "two-singularity-suspension"
MODE_EDGE = "two-singularity-edge-fold"
MODES = (MODE_ONE, MODE_SUSPENSION, MODE_EDGE)


# -- inverse operations --------------------------------------------------


def inverse_facet_subdivision(k: Complex, u: int) -> Complex:
    """Delete a vertex whose link is a simplex boundary and restore the facet."""
    if u not in k.vertices:
        raise UnknownVertex(f"vertex {u} not in complex")
    d = k.dim
    if len(k.vertices) < d + 3:
        raise MinimalComplex("complex has no room for an inverse subdivision")
    link = k.link((u,))
    if link.dim != d - 1 or not _is_boundary_simplex(link):
        raise LinkNotSimplexBoundary(f"link of {u} is not the boundary of a {d}-simplex")
    vs = tuple(sorted(link.vertices))
    if k.has_face(vs):
        raise SimplexAlreadyPresent(f"simplex {vs} already present; retriangulation case")
    facets = k.maximal_faces.difference(k.facets_through((u,))) | {vs}
    return Complex._trusted(facets)


class SplitResult(NamedTuple):
    part_a: Complex
    part_b: Complex
    missing_facet: Simplex
    pairing: dict[int, int]  # vertex of the facet in part_a -> its copy in part_b


def split_connected_sum(k: Complex, tau) -> SplitResult:
    """Undo a connected sum along the missing facet ``tau``.

    Facets are assigned to the two components of the facet graph cut
    along the boundary of tau; each part receives tau back as a facet,
    with part_b's copy on fresh labels so the parts are label-disjoint.
    A part that fails the split certificate raises DecompositionError.
    """
    t = require_missing_facet(k, tau)
    return _split(k, t, _cut_components(k.maximal_faces, set(t)))


def _split(k: Complex, t: Simplex, pieces) -> SplitResult:
    """``split_connected_sum`` along a ``t`` known to be a missing facet,
    given the ``pieces`` of the facet graph of ``k`` cut along t."""
    if len(pieces) == 1:
        raise NotSplit(f"cut along {t} does not disconnect; handle signature")
    if len(pieces) > 2:
        raise DecompositionError(f"cut along {t} produced {len(pieces)} pieces")
    fresh = tuple(fresh_labels(k, len(t)))
    pairing = dict(zip(t, fresh))
    part_a = Complex._trusted(set(pieces[0]) | {t})
    part_b = Complex._trusted({tuple(sorted(pairing.get(v, v) for v in f)) for f in pieces[1]} | {fresh})
    # each ridge of t lies in two facets of a normal k, so the part with
    # fewer facets decides the certificate for both
    smaller = (part_a, t) if len(pieces[0]) <= len(pieces[1]) else (part_b, fresh)
    if not _ridge_certificate(*smaller):
        raise DecompositionError(f"splitting along {t} leaves a part that is not normal")
    return SplitResult(part_a, part_b, t, pairing)


def _ridge_certificate(k: Complex, t: Simplex) -> bool:
    """Whether ``t`` is a facet of ``k`` and each of its ridges lies in
    exactly one other facet, read off ``k.facets_through``.

    For a normal complex cut along its missing facet t into two sides,
    the certificate on side + t holds exactly when that part is normal.  A
    face not inside t keeps its whole star on one side, so its link does
    not change.  Every piece of the link of a face s of t, cut along the
    boundary of t - s, touches that boundary, so t - s reconnects the
    link.  The side is one piece of the cut and t is glued to it, so the
    part is strongly connected.  Only the ridges of t can lose their
    degree 2.  ``decompose`` gives the argument for unfoldings.
    """
    return t in k.maximal_faces and all(
        len(k.facets_through(r)) == 2 for r in itertools.combinations(t, len(t) - 1))


class UnfoldResult(NamedTuple):
    complex: Complex
    source_facet: Simplex
    target_facet: Simplex
    pairs: tuple[tuple[int, int], ...]

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)


def _classified_as(k: Complex, tau, kind: str, at) -> SeparationReport:
    """The separation report of the missing facet ``tau``, which
    ``classify_missing_facet`` must find of ``kind`` at the vertex or
    sorted edge ``at``; any other class raises PreconditionUnmet."""
    cls = classify_missing_facet(k, tau)
    found = cls.edge if cls.vertex is None else cls.vertex
    if (cls.kind, found) != (kind, at):
        where = "" if found is None else f" at {found}"
        raise PreconditionUnmet(f"missing facet {cls.report.missing_facet} is classified "
                                f"{cls.kind}{where}, not {kind} at {at}")
    return cls.report


def _refold(fold, k: Complex, unfolded: Complex, source: Simplex, target: Simplex,
            mapping: dict[int, int]) -> UnfoldResult:
    """Record the forward fold of an unfolding after checking that it is
    admissible and reproduces ``k`` exactly."""
    try:
        refolded = fold(unfolded, source, target, mapping)
    except InadmissibleFold as exc:
        raise DecompositionError(f"reconstructed fold is not admissible: {exc}") from exc
    if refolded != k:
        raise DecompositionError("folding the unfolded complex does not reproduce the input")
    return UnfoldResult(unfolded, source, target, tuple(sorted(mapping.items())))


def _unfold(fold, k: Complex, fixed: Simplex, report: SeparationReport) -> UnfoldResult:
    """Undo the fold that identified two facets along the shared face
    ``fixed`` and left the missing facet ``t`` of ``report``, which has
    the fold's separation signature.

    Each vertex of t off the fixed face gets a fresh copy.  A facet f
    through some of them keeps its labels when each such x finds the
    residue f - x on the plus side of the link of x, oriented at
    ``fixed[0]``, and takes the copies otherwise; t and its copy become
    facets again.  The recorded forward fold must reproduce ``k``
    exactly.
    """
    t = report.missing_facet
    plus = _oriented_sides(k, fixed[0], report)
    others = [x for x in t if x not in fixed]
    copy = dict(zip(others, fresh_labels(k, len(others))))

    rewritten: set[Simplex] = set()
    for f in k.maximal_faces:
        votes = {tuple([w for w in f if w != x]) in plus[x] for x in f if x in copy}
        if votes:
            if len(votes) != 1:
                raise SideAssignmentInconsistent(
                    f"facet {f} is assigned to different sides by its tau-vertices"
                )
            if not votes.pop():
                f = tuple(sorted(copy.get(x, x) for x in f))
        rewritten.add(f)

    target = tuple(sorted([*fixed, *copy.values()]))
    facets = rewritten | {t, target}
    unfolded = Complex._trusted(facets)
    return _refold(fold, k, unfolded, t, target, {**dict(zip(fixed, fixed)), **copy})


def vertex_unfold(k: Complex, tau, v: int) -> UnfoldResult:
    """Undo a vertex folding at ``v`` whose merged facet became ``tau``.

    ``classify_missing_facet`` must find ``tau`` a vertex fold at v,
    else PreconditionUnmet names the class it found.  Facets whose
    witnesses lie on the negative side have their tau-vertices other
    than v replaced by fresh copies.  The recorded forward fold
    reproduces the input exactly.
    """
    return _unfold(vertex_fold, k, (v,), _classified_as(k, tau, "vertex_fold", v))


def edge_unfold(k: Complex, tau, edge) -> UnfoldResult:
    """Undo an edge folding along ``edge`` whose merged facet became ``tau``,
    which ``classify_missing_facet`` must find an edge fold at that edge."""
    if len(set(edge)) != 2:
        raise PreconditionUnmet(f"{tuple(edge)} is not an edge")
    edge = tuple(sorted(edge))
    return _unfold(edge_fold, k, edge, _classified_as(k, tau, "edge_fold", edge))


def recognize_one_vertex_suspension(k: Complex, t: int, t1: int):
    """Recognise ``k`` as the one-vertex suspension of the link of ``t``
    with pole ``t1``; returns ``(base, t1)`` or None.

    The test is that ``t1`` lies in the link of ``t`` and that the
    forward ``one_vertex_suspension`` of that link at ``t1``, with apex
    ``t``, gives back ``k`` exactly.
    """
    return None if t not in k.vertices else _suspension_of(k, k.link((t,)), t, t1)


def _suspension_of(k: Complex, base: Complex, t: int, t1: int):
    """``recognize_one_vertex_suspension`` with ``base`` = lk t built."""
    if t1 not in base.vertices or one_vertex_suspension(base, t1, apex=t) != k:
        return None
    return base, t1


# -- decomposition trees ---------------------------------------------------


# JSON fields of a tree node besides its kind and leaf kind, in output
# order, with the number of list levels above their integers.
_FIELDS = {
    "children": 1, "n": 0, "vertex": 0, "apex": 0, "facets": 2, "missing_facet": 1,
    "edge": 1, "facet": 1, "source_facet": 1, "target_facet": 1, "pairs": 2,
}

# Per node kind: its number of children, the build-script op that rebuilds
# it from them, and the fields that op needs, named as in its script step.
_SHAPES = {
    "leaf": (0, "complex", ("facets",)),
    "suspension_base": (0, "one_vertex_suspension", ("facets", "vertex", "apex")),
    "inverse_subdivision": (1, "facet_subdivision", ("facet",)),
    "vertex_unfold": (1, "vertex_fold", ("source_facet", "target_facet", "pairs")),
    "edge_unfold": (1, "edge_fold", ("source_facet", "target_facet", "pairs")),
    "split": (2, "connected_sum", ("pairs",)),
}


@dataclass
class TreeNode:
    """One decomposition step.

    Kinds: ``leaf`` (a certified terminal complex, stored verbatim),
    ``split`` (two children glued by a connected sum), ``vertex_unfold``
    and ``edge_unfold`` (child folded back with the recorded bijection),
    ``inverse_subdivision`` (child re-subdivided at the recorded facet)
    and ``suspension_base`` (terminal; the stored 3-dimensional base is
    suspended at ``vertex`` with the recorded ``apex``).
    """

    kind: str
    children: tuple[int, ...] = ()
    leaf_kind: Optional[str] = None  # boundary_simplex | irreducible_base
    facets: Optional[tuple[Simplex, ...]] = None
    n: Optional[int] = None
    missing_facet: Optional[Simplex] = None
    vertex: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    apex: Optional[int] = None
    facet: Optional[Simplex] = None
    source_facet: Optional[Simplex] = None
    target_facet: Optional[Simplex] = None
    pairs: Optional[tuple[tuple[int, int], ...]] = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.leaf_kind is not None:
            out["leaf_kind"] = self.leaf_kind
        for key, depth in _FIELDS.items():
            value = getattr(self, key)
            if value not in (None, ()):
                out[key] = _lists(value, depth)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TreeNode":
        if not (isinstance(data, dict) and isinstance(data.get("kind"), str)
                and isinstance(data.get("leaf_kind"), (str, type(None)))):
            raise MalformedTree(f"bad tree node {data!r}: kind and leaf_kind must be strings")
        kind, leaf_kind = data["kind"], data.get("leaf_kind")
        if leaf_kind not in (("boundary_simplex", "irreducible_base") if kind == "leaf" else (None,)):
            raise MalformedTree(f"bad tree node {data!r}: leaf_kind {leaf_kind!r} on a {kind} node")
        fields = {}
        for key, depth in _FIELDS.items():
            if data.get(key) is not None:
                try:
                    fields[key] = _integers(data[key], depth)
                except (TypeError, ComplexError) as exc:
                    raise MalformedTree(f"bad field {key!r} in tree node {data!r}: {exc}") from exc
        return cls(kind, leaf_kind=leaf_kind, **fields)


def _integers(value, depth: int):
    """``value`` as ``depth`` levels of nested tuples over JSON integers;
    a non-list raises TypeError, and a boolean, float or string label
    ComplexError.  A JSON ``list`` of ``int`` (or of such lists) is
    converted after one type pass; anything else is read level by level,
    which words the refusal."""
    if depth == 1 and type(value) is list and set(map(type, value)) <= {int}:
        return tuple(value)
    if (depth == 2 and type(value) is list and set(map(type, value)) <= {list}
            and set(map(type, itertools.chain.from_iterable(value))) <= {int}):
        return tuple(map(tuple, value))
    if depth == 0:
        return _integer(value)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(_integers(v, depth - 1) for v in value)


def _lists(value, depth: int):
    """A ``_FIELDS`` value of ``depth`` (at most 2) list levels as lists."""
    return list(map(list, value)) if depth == 2 else list(value) if depth else value


@dataclass
class DecompositionTree:
    steps: list[TreeNode]
    root: int

    @property
    def counters(self) -> dict[str, int]:
        """Node counts, read off ``steps``."""
        kinds = Counter(node.kind for node in self.steps)
        irreducible = any(node.leaf_kind == "irreducible_base" for node in self.steps)
        return {"vertex_folds": kinds["vertex_unfold"], "edge_folds": kinds["edge_unfold"],
                "connected_sums": kinds["split"], "inverse_subdivisions": kinds["inverse_subdivision"],
                "irreducible": int(irreducible)}

    @property
    def vertex_fold_count(self) -> int:
        return self.counters["vertex_folds"]

    @property
    def edge_fold_count(self) -> int:
        return self.counters["edge_folds"]

    def g2_accounting(self) -> tuple[int, int, int, int]:
        """``(m, n, base, C(d, 2)m + C(d + 1, 2)n + base)`` for m edge folds
        and n vertex folds of a d-complex, where base is the g2 of the
        terminal bases (suspension bases and irreducible leaves); the total
        is the g2 the tree accounts for.  d is read off node 0, which has no
        children: a leaf's facets have d + 1 vertices, a base's d."""
        m, n = self.edge_fold_count, self.vertex_fold_count
        base = sum(_g2(Complex(s.facets)) for s in self.steps if s.kind == "suspension_base"
                   or (s.kind == "leaf" and s.leaf_kind == "irreducible_base"))
        d = len(self.steps[0].facets[0]) - (self.steps[0].kind == "leaf")
        folds = fold_deltas("edge_fold", d)[0] * m + fold_deltas("vertex_fold", d)[0] * n
        return m, n, base, folds + base

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "counters": self.counters,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionTree":
        version = data.get("version") if isinstance(data, dict) else None
        if type(version) is not int or version != 1:
            raise MalformedTree("tree document must carry version 1")
        steps = data.get("steps", [])
        if not isinstance(steps, list):
            raise MalformedTree("steps must be a list")
        root = data.get("root")
        if type(root) is not int:
            raise MalformedTree("missing root index")
        counters = data.get("counters", {})
        if not isinstance(counters, dict) or not all(
            isinstance(name, str) and type(value) is int for name, value in counters.items()
        ):
            raise MalformedTree("counters must map names to integers")
        tree = cls([TreeNode.from_dict(s) for s in steps], root)
        tree.validate()
        if counters != tree.counters:
            raise MalformedTree(f"counters {counters} differ from the steps' {tree.counters}")
        return tree

    def to_script(self) -> dict:
        """The build script of nodes 0..root, the root's step last, after
        ``validate``: each node's ``_SHAPES`` op on its children's steps,
        a suspension base's after a ``complex`` step on its facets."""
        self.validate()
        steps: list[dict] = []
        at: list[int] = []  # node index -> index of its step
        for node in self.steps[: self.root + 1]:
            _, op, needed = _SHAPES[node.kind]
            step = {key: _lists(getattr(node, key), _FIELDS[key]) for key in needed}
            operands = [at[c] for c in node.children]
            if node.kind == "suspension_base":
                steps.append({"op": "complex", "facets": step.pop("facets")})
                operands = [len(steps) - 1]
            elif node.kind == "inverse_subdivision":
                step["new_vertex"] = node.vertex
            step.update(zip(_operand_keys(op), operands), op=op)
            at.append(len(steps))
            steps.append(step)
        return {"version": SCRIPT_VERSION, "steps": steps}

    def validate(self) -> None:
        if not (0 <= self.root < len(self.steps)):
            raise MalformedTree("root index out of range")
        for i, node in enumerate(self.steps):
            if node.kind not in _SHAPES:
                raise MalformedTree(f"unknown node kind {node.kind!r}")
            arity, _, needed = _SHAPES[node.kind]
            if len(node.children) != arity:
                raise MalformedTree(
                    f"{node.kind} node {i} has {len(node.children)} children, expected {arity}"
                )
            for c in node.children:
                if not (0 <= c < i):
                    raise MalformedTree(f"node {i} references child {c}")
            for key in needed:
                if getattr(node, key) is None:
                    raise MalformedTree(f"{node.kind} node {i} lacks {key}")
            if node.pairs is not None and any(len(p) != 2 for p in node.pairs):
                raise MalformedTree(f"{node.kind} node {i} has a pair of the wrong length")


def rebuild(tree: DecompositionTree) -> Complex:
    """Run a decomposition tree's build script through ``_run_script``;
    bad stored facets raise MalformedTree."""
    script = tree.to_script()
    try:
        return _run_script(script)
    except ScriptError as exc:
        steps = script["steps"]
        if steps[exc.step]["op"] != "complex":
            raise
        i = exc.step - sum(step["op"] == "one_vertex_suspension" for step in steps[:exc.step])
        raise MalformedTree(f"{tree.steps[i].kind} node {i} has bad facets: {exc.__cause__}") from exc


# -- the decomposition engine ----------------------------------------------


def _off_star(k: Complex, t: int, link: Complex, j: int) -> list[Simplex]:
    """The sorted j-faces of ``k`` off ``t`` and outside its star; ``link`` is lk t."""
    in_link = link.faces(j)
    return sorted(s for s in k.faces(j) if t not in s and s not in in_link)


def _stacked_ball(k: Complex) -> tuple[list[Simplex], list[Simplex]]:
    """The stacked (d + 1)-ball that the stacked d-sphere ``k`` bounds
    (d = k.dim >= 3): its (d + 1)-simplices, and its sorted interior d-faces.

    A ball simplex through a d-face s is s + a for an apex a whose
    ridges with the (d - 2)-faces of s are all faces of ``k``, so a is
    a common neighbour of s.  The search starts at the least facet of
    ``k``, which must find one apex, and crosses every d-face of a found
    simplex that is not a facet of ``k``, which must find two.  Every
    facet of ``k`` must lie in exactly one found simplex.  The simplices
    are met as a tree, each new one across one new interior face, so
    there are one more simplices than interior faces and each interior
    face lies in exactly two.  A failed check raises DecompositionError.
    """
    d = k.dim
    facets, ridges = k.maximal_faces, k.faces(d - 1)

    def apexes(s: Simplex) -> list[int]:
        common = frozenset.intersection(*map(k.neighbors, s))
        return [a for a in common if all(tuple(sorted((*r, a))) in ridges
                                         for r in itertools.combinations(s, d - 1))]

    def refuse(why: str):
        return DecompositionError(f"a part with g2 = 0 bounds no stacked ball: {why}")

    start = min(facets)
    found = apexes(start)
    if len(found) != 1:
        raise refuse(f"facet {start} lies in {len(found)} ball simplices")
    leaves = [tuple(sorted((*start, *found)))]
    seen, interior, covered = set(leaves), set(), set()
    for s in leaves:  # grows while it is read
        for a, face in zip(reversed(s), itertools.combinations(s, d + 1)):
            if face in facets:
                if face in covered:
                    raise refuse(f"facet {face} lies in two ball simplices")
                covered.add(face)
            elif face not in interior:
                interior.add(face)
                other = [b for b in apexes(face) if b != a]
                if len(other) != 1:
                    raise refuse(f"interior face {face} lies in {len(other) + 1} ball simplices")
                nxt = tuple(sorted((*face, *other)))
                if nxt in seen:
                    raise refuse(f"the simplices around {face} close a cycle")
                seen.add(nxt)
                leaves.append(nxt)
    if len(covered) != len(facets):
        raise refuse(f"the ball simplices hold {len(covered)} facets of {len(facets)}")
    return leaves, sorted(interior)


def _link_homology(link: Complex) -> Optional[tuple[int, int]]:
    """The GF(2) (b1, b2) of the normal vertex link ``link`` where its
    verdict reads them, None where g2(link) = 0 decides it."""
    return None if _g2(link) == 0 else _normal_betti(link)[1:3]


# How much lk t's (b1, b2) drops when a fold at t, or along an edge
# through t, is undone (see ``decompose``).
_LINK_DROPS = {"vertex_fold": (1, 1), "edge_fold": (0, 1)}


def _split_homology(a: Complex, ta, b: Complex, tb, homology):
    """lk t's (b1, b2) in the parts ``a`` and ``b`` of a split, which hold
    t as ``ta`` and ``tb``, by the split rule of ``decompose``."""
    if homology is None or ta is None or tb is None:
        # with t off tau, the part that holds t keeps lk t whole, and
        # the other never reads the numbers
        return homology, homology
    small, ts, large = (a, ta, b) if len(a.maximal_faces) <= len(b.maximal_faces) else (b, tb, a)
    if _g2(small) == 0:
        got = (0, 0)
    elif _g2(large) == 0:
        got = homology
    else:
        got = _normal_betti(small.link((ts,)))[1:3]
    rest = tuple(map(operator.sub, homology, got))
    return (got, rest) if small is a else (rest, got)


def _ball_boundary(leaves) -> Complex:
    """The d-faces that lie in exactly one of the (d + 1)-simplices ``leaves``."""
    counts = Counter(_faces(leaves, len(leaves[0]) - 1))
    return Complex._trusted(f for f, c in counts.items() if c == 1)


class _Engine:
    """The decomposition loop.  A part is ``(complex, t, t1, homology,
    None)`` whose complex is proven a normal pseudomanifold, with
    ``homology`` the GF(2) (b1, b2) of lk t carried by the rules of
    ``decompose``, or None where no rule gives them; or a ball part
    ``(None, None, None, None, (leaves, interior))``: a stacked d-sphere
    held as the (d + 1)-simplices of the stacked ball it bounds and the
    ball's sorted interior faces (see ``_stacked_ball``).
    """

    def __init__(self, mode: str, debug: bool, link: Optional[Complex] = None):
        self.mode = mode
        self.debug = debug
        self.link = link  # lk t of the first part, which its step takes
        self.steps: list[TreeNode] = []
        self.budget, self.taken = 100_000, 0

    def verdict(self, v: int, link: Complex, homology=None) -> str:
        # the link of a vertex of a normal complex is normal, since
        # lk(s, lk(v)) = lk(s + v)
        verdict = _classify(v, link, homology)
        if verdict.status == "unknown":
            raise UnknownSingularity(f"vertex {v} has an unknown link verdict")
        return verdict.status

    def check_state(self, k: Optional[Complex], t: Optional[int], ball):
        if not self.debug:
            return
        if ball is not None:
            k = _ball_boundary(ball[0])
        report = is_normal_pseudomanifold(k)
        if not report.normal:
            raise DecompositionError(f"intermediate complex is not normal: {report}")
        if t is not None and t in k.vertices:
            if not optimality_check(k, t).optimal:
                raise DecompositionError(f"optimality lost at vertex {t}")
        if ball is not None:
            if _g2(k) != 0:
                raise DecompositionError("a ball part has g2 != 0")
            if ball[1] != sorted(k.missing_simplices(k.dim)):
                raise DecompositionError("the interior faces of a ball part differ from "
                                         "its missing facets")

    # -- the work-stack loop --

    def run(self, part) -> int:
        """Reduce ``part`` depth first and return the index of its node.

        Parts are expanded in order and each node is recorded after its
        children, so node indices follow the post-order of the tree.
        """
        node, parts = self.step(*part)
        stack = [(node, iter(parts), [])]
        while True:
            node, parts, children = stack[-1]
            part = next(parts, None)
            if part is not None:
                child, child_parts = self.step(*part)
                stack.append((child, iter(child_parts), []))
                continue
            stack.pop()
            node.children = tuple(children)
            self.steps.append(node)
            index = len(self.steps) - 1
            if not stack:
                return index
            stack[-1][2].append(index)  # a child of the node below

    def step(self, k: Optional[Complex], t: Optional[int], t1: Optional[int], homology,
             ball) -> tuple[TreeNode, list]:
        """Reduce one complex: its node, without children yet, and the
        parts that become those children."""
        self.taken += 1
        if self.taken > self.budget:
            raise DecompositionError("step budget exhausted; decomposition cut off")
        self.check_state(k, t, ball)
        if ball is not None:
            return self.ball(*ball)
        if _is_boundary_simplex(k):
            return TreeNode("leaf", leaf_kind="boundary_simplex", n=k.dim + 1, facets=k.facets), []
        if t not in k.vertices:
            return self.stacked(k)
        link, self.link = k.link((t,)) if self.link is None else self.link, None
        if homology is None:
            homology = _link_homology(link)
        elif self.debug and _normal_betti(link)[1:3] != homology:
            raise DecompositionError(f"step {self.taken} carries (b1, b2) = {homology} for the link "
                                     f"of {t}, whose homology gives {_normal_betti(link)[1:3]}")
        if self.verdict(t, link, homology) != "singular":
            return self.stacked(k)
        return self.singular(k, t, t1, link, homology)

    def stacked(self, k: Complex):
        """An irreducible leaf if g2 != 0, else the first step of the
        stacked ball that k bounds."""
        if _g2(k) != 0:
            return TreeNode("leaf", leaf_kind="irreducible_base", facets=k.facets), []
        return self.ball(*_stacked_ball(k))

    def ball(self, leaves: list[Simplex], interior: list[Simplex]):
        """A ball part's node and parts: the boundary-simplex leaf of a
        single simplex, else the split along the first interior face tau.
        The dual tree of the ball, cut at tau, leaves two subballs.  Part
        A is the one that holds the least facet, and part B's copy of tau
        takes the labels after the largest.  This is the split of the
        bounded sphere along its missing facet tau: its two sides are the
        facets of the two subballs, and each keeps its interior faces.
        One width n = d + 1 serves the leaf, the faces and tau's copy."""
        n = len(leaves[0]) - 1
        if len(leaves) == 1:
            facets = tuple(itertools.combinations(leaves[0], n))
            return TreeNode("leaf", leaf_kind="boundary_simplex", n=n, facets=facets), []
        tau, inner = interior[0], set(interior)
        through: dict[Simplex, list[Simplex]] = {}  # interior face -> its two simplices
        inner_of: dict[Simplex, list[Simplex]] = {}
        least = home = None
        for s in leaves:
            faces = inner_of[s] = []
            for face in itertools.combinations(s, n):
                if face in inner:
                    faces.append(face)
                    through.setdefault(face, []).append(s)
                elif least is None or face < least:
                    least, home = face, s
        side, stack = {home}, [home]
        while stack:
            for face in inner_of[stack.pop()]:
                if face != tau:
                    for s in through[face]:
                        if s not in side:
                            side.add(s)
                            stack.append(s)
        top = max(s[-1] for s in leaves)
        pairing = dict(zip(tau, range(top + 1, top + 1 + n)))

        def moved(s: Simplex) -> Simplex:
            return tuple(sorted(map(pairing.get, s, s)))

        part_a = ([s for s in leaves if s in side],
                  [f for f in interior[1:] if through[f][0] in side])
        part_b = ([moved(s) for s in leaves if s not in side],
                  sorted(moved(f) for f in interior[1:] if through[f][0] not in side))
        node = TreeNode("split", missing_facet=tau, pairs=tuple(pairing.items()))
        return node, [(None, None, None, None, part_a), (None, None, None, None, part_b)]

    def singular(self, k: Complex, t: int, t1, link: Complex, homology):
        """Reduce ``k`` at its singular vertex t, whose link is ``link``
        with (b1, b2) = ``homology``.  Its scans read the star of t off
        that link (``_off_star``): a face s off t lies in the star of t
        iff s is a face of lk t."""
        # reduction outside the star of t
        outside = [u for (u,) in _off_star(k, t, link, 0)]
        for u in outside:
            try:
                reduced = inverse_facet_subdivision(k, u)
            except LinkNotSimplexBoundary:
                continue
            node = TreeNode("inverse_subdivision", vertex=u, facet=tuple(sorted(k.neighbors(u))))
            return node, [(reduced, t, t1, homology, None)]
        if outside:
            u = outside[0]
            link = k.link((u,))
            if _g2(link) != 0:
                raise DecompositionError(
                    f"vertex {u} outside the star of {t} has a non-stacked link"
                )
            candidates = sorted(link.missing_simplices(link.dim))
            in_complex = [c for c in candidates if k.has_face(c)]
            if not in_complex:
                raise DecompositionError(
                    f"no reinsertable missing facet in the link of {u}; retriangulation case"
                )
            missing = tuple(sorted(in_complex[0] + (u,)))
            return self.classified(k, missing, t, t1, homology)

        # all vertices are now in the star of t; the 2-skeleton must match it
        stray = _off_star(k, t, link, k.dim - 2)
        if stray:
            raise DecompositionError(f"triangle {stray[0]} lies outside the star of {t}; "
                                     "optimality hypotheses violated")

        if self.mode == MODE_SUSPENSION and t1 is not None and t1 in k.vertices:
            if self.verdict(t1, k.link((t1,))) == "singular":
                found = _suspension_of(k, link, t, t1)
                if found:
                    base, pole = found
                    if _g2(base) != _g2(base.link((pole,))):
                        raise DecompositionError(f"suspension base is not g2-minimal at {pole}")
                    return TreeNode("suspension_base", vertex=pole, apex=t, facets=base.facets), []

        interior = _off_star(k, t, link, k.dim - 1)
        if not interior:
            return TreeNode("leaf", leaf_kind="irreducible_base", facets=k.facets), []

        tau = self.choose_interior(k, interior, t, t1)
        missing = tuple(sorted(tau + (t,)))
        return self.classified(k, missing, t, t1, homology)

    def choose_interior(self, k: Complex, interior, t, t1) -> Simplex:
        """In suspension mode the first interior face in the star of t1
        but off t1; failing that the first off t1, and else the first."""
        if t1 is None:
            return interior[0]
        off = [f3 for f3 in interior if t1 not in f3]
        in_star = [f3 for f3 in off if self.mode == MODE_SUSPENSION and k.has_face(f3 + (t1,))]
        return (in_star or off or interior)[0]

    def classified(self, k: Complex, missing, t, t1, homology):
        cls = classify_missing_facet(k, missing)
        if cls.kind == "connected_sum_split":
            return self.split(k, cls.report.missing_facet, cls.pieces, t, t1, homology)
        if cls.kind == "vertex_fold":
            fold, fixed, where = vertex_fold, (cls.vertex,), {"vertex": cls.vertex}
        elif cls.kind == "edge_fold":
            if self.mode != MODE_EDGE:
                raise ModeMismatch(f"edge-fold signature at {cls.edge} in mode {self.mode!r}")
            fold, fixed, where = edge_fold, cls.edge, {"edge": cls.edge}
        elif cls.kind == "handle_like":
            raise DecompositionError(
                f"missing facet {tuple(missing)} carries a handle signature; optimal inputs cannot"
            )
        else:
            raise DecompositionError(f"missing facet {tuple(missing)} is unclassified")
        # the classification proved the fold signature that the unfolding needs
        unfold = _unfold(fold, k, fixed, cls.report)
        kind = cls.kind.replace("_fold", "_unfold")
        got, expected = _g2(k) - _g2(unfold.complex), fold_deltas(cls.kind, k.dim)[0]
        if got != expected:
            raise DecompositionError(f"{kind.replace('_', ' ')} changed g2 by {got}, "
                                     f"expected {expected}")
        for f in (unfold.source_facet, unfold.target_facet):
            if not _ridge_certificate(unfold.complex, f):
                raise DecompositionError(f"intermediate complex is not normal: {f} is not a "
                                         "facet whose ridges each lie in one other facet")
        node = TreeNode(
            kind,
            missing_facet=simplex(missing),
            source_facet=unfold.source_facet,
            target_facet=unfold.target_facet,
            pairs=unfold.pairs,
            **where,
        )
        drop = homology is not None and t in fixed and _LINK_DROPS[cls.kind]
        homology = tuple(map(operator.sub, homology, drop)) if drop else None
        return node, [(unfold.complex, t, t1, homology, None)]

    def split(self, k: Complex, tau: Simplex, pieces, t, t1, homology):
        """Split ``k`` along its missing facet ``tau`` into the ``pieces``
        of its cut; the parts keep the proofs listed in ``decompose``."""
        split = _split(k, tau, pieces)

        def locate(part: Complex, v, mapped):
            w = mapped.get(v, v)
            return w if w in part.vertices else None

        (a, ta, t1a), (b, tb, t1b) = [
            (part, locate(part, t, mapped), locate(part, t1, mapped))
            for part, mapped in ((split.part_a, {}), (split.part_b, split.pairing))
        ]
        ha, hb = _split_homology(a, ta, b, tb, homology)
        parts = [(a, ta, t1a, ha, None), (b, tb, t1b, hb, None)]
        node = TreeNode("split", missing_facet=tau, pairs=tuple(sorted(split.pairing.items())))
        return node, parts


def _start(k: Complex, t: int, mode: str):
    """Check the input of ``decompose``, refusing in this order; then
    the engine, which holds lk t for the root's step, and the root part."""
    if mode not in MODES:
        raise ModeMismatch(f"unknown mode {mode!r}; expected one of {MODES}")
    if k.dim != 4:
        raise DecompositionError("decomposition engine requires dimension 4")
    if t not in k.vertices:
        raise UnknownVertex(f"vertex {t} not in complex")
    report = is_normal_pseudomanifold(k)
    if not report.normal:
        raise DecompositionError(f"input is not a normal pseudomanifold: {report}")
    link = k.link((t,))
    g2_k, g2_link, g3_k, g3_link = _optimality_numbers(k, link)
    if g2_k != g2_link or g3_k != g3_link:
        raise NotOptimal(f"complex is not g2- and g3-optimal at vertex {t}: g2(K) = {g2_k}, "
                         f"g2(lk {t}) = {g2_link}, g3(K) = {g3_k}, g3(lk {t}) = {g3_link}")

    homology = _link_homology(link)
    verdicts = _classify_normal_vertices(k, {t: _classify(t, link, homology)})
    unknown = [v for v, verdict in verdicts.items() if verdict.status == "unknown"]
    if unknown:
        raise UnknownSingularity(f"vertices {unknown} have unknown link verdicts")
    singular = [v for v, verdict in verdicts.items() if verdict.singular]

    limit = 1 if mode == MODE_ONE else 2
    if len(singular) > limit:
        raise ModeMismatch(f"{len(singular)} singular vertices exceed mode {mode!r}")
    if singular and t not in singular:
        raise ModeMismatch(f"tracked vertex {t} is not singular; singular set is {singular}")
    t1 = next((v for v in singular if v != t), None)
    return _Engine(mode, _debug(), link), (k, t, t1, homology, None)


def decompose(k: Complex, t: int, mode: str = MODE_EDGE) -> DecompositionTree:
    """Decompose an optimal normal 4-pseudomanifold into certified leaves.

    Each step reduces one complex: it exhausts inverse facet
    subdivisions outside the star of ``t``, locates a missing facet
    through ``t``, classifies it and applies the matching inverse
    operation, whose results are the parts still to reduce.  One loop
    over a work stack reduces the parts depth first, so the Python
    stack does not grow with the depth of the tree.  ``mode`` selects
    the route for two singularities: either termination at a
    recognised one-vertex suspension or edge unfoldings along the
    singular edge.  The counters are read off the finished tree.

    Every part is proven normal and carries what else is proven about
    it, so no step proves anything again:
    - *normal*: the input is checked in full, and every later part by
      the ridge certificate (each ridge of a facet t lies in exactly one
      other facet, ``_ridge_certificate``) or a local argument:
      - a classified split along its missing facet t passes the
        certificate on its part with fewer facets, on that part's copy
        of t, which decides for both parts: no link outside t changes,
        and t reconnects the links inside it;
      - the parts of a stacked ball are the boundaries of its subballs,
        stacked spheres (see *the stacked ball* below);
      - an inverse subdivision changes only the links of the restored
        facet's faces, each for one with the same boundary;
      - an unfolding of k along its missing facet t passes the
        certificate on t and on its copy t', which must both be facets
        of the result.  A facet f takes the copy of a vertex x of t
        exactly when its residue f - x lies off the plus side of the
        link of x.  Two facets through x that share a ridge with a
        vertex off t have residues adjacent across a ridge not inside
        t - x, which the cut keeps, so they lie on one side and the two
        facets copy x alike.  When
        k is normal, the unfolding's votes agree, and classification
        found no vertex of the fixed face F (nor F, if an edge)
        separating its link, every link of the result is connected:
        (i) a face s outside t and t' has a vertex w off t.  The facets
        through s and a copied vertex x are joined across ridges that
        hold s, and so w, so x is copied in all of them or in none, and
        the link of s is only relabelled;
        (ii) a face s of t that meets copied vertices: each piece of its
        link in k, cut along the boundary of t - s, is joined across
        ridges with a vertex off t, so the piece moves whole.  Each
        piece holds a ridge of t - s, so t - s joins the pieces that
        stay.  The same holds for t' and the pieces that take copies;
        (iii) the link of a face s inside F, cut that way, is one piece.
        Every adjacency across a ridge off t survives the relabelling,
        so t - s and t' - s join one piece;
        (iv) folding t' onto t maps the result onto the connected k, so
        every component of the result meets t or t'; these share F, so
        the result is connected.  A connected pure complex whose
        face links are connected is strongly connected (Bagchi and
        Datta, 2008), and the certificate and (i) give every ridge two
        facets.
      So vertex links are normal, and verdicts do not prove them again;
    - *the stacked ball*: a normal part of dimension d >= 3 with g2 = 0
      is a stacked sphere (Bagchi and Datta, 2008), so it needs no
      verdict and bounds a stacked (d + 1)-ball B, found once by
      ``_stacked_ball`` and emitted without another proof
      (``_Engine.ball``).  B is built from one simplex by gluing
      simplices on boundary facets, each with a new vertex, so every
      face of B with at most d vertices lies in a boundary facet (such
      a face of the glued facet F lies in a new facet of the new simplex
      F + v), and B is flag: a clique through v lies in F + v.  So the
      simplices of B are the (d + 2)-cliques of the part's graph
      (McMullen and Walkup, 1971), and the search is exact: a common
      neighbour a of a d-face s of B gives the clique s + a, which is a
      simplex of B.  The interior faces of B are the missing facets of
      the part: an interior face has its d-sets in the part and is no
      facet of it, and a missing facet is a (d + 1)-clique, so a
      face of B, and not on the boundary.  The first missing facet tau
      is the first interior face.  Cutting the dual tree of B at tau
      leaves two subballs, whose boundaries are the two parts of the
      split along tau, and each keeps its interior faces (part B
      relabelled), so the parts are stacked spheres with their balls.
      The cut of the facet graph along tau has the same two pieces: a
      ridge r not inside tau lies in a chain of simplices of B joined
      across faces through r, none of them tau, so its two facets lie
      on one side, and every vertex of tau separates its link, the
      split signature of classification;
    - *the homology of lk t*: lk t is built once at entry, for the
      optimality test, t's verdict and the root's step, and its GF(2)
      Betti numbers (b1, b2) are carried from part to part, so no
      verdict at t computes them again (``_Engine.step``).  Each lk t
      is a normal 3-pseudomanifold L, with b0 = 0 and b3 = 1
      (``_normal_betti``).  Homology is over GF(2) (Munkres, Elements of
      Algebraic Topology, 1984).  Let M be L less the open tetrahedra
      of a set of its facets.  Then H_i(L, M) = 0 for i < 3, by excision
      onto the tetrahedra rel their boundaries, so H1(M) = H1(L); and
      for one tetrahedron H3(M) = 0, since the only nonzero 3-cycle of L
      is the sum of its facets, so H3(L) = H3(L, M) and H2(M) = H2(L).
      The rules:
      - an inverse subdivision at u outside the star of t keeps the
        numbers: no facet through t changes, and the restored facet is
        the vertex set of lk u, which does not hold t;
      - a split along tau keeps them in the part that holds t if t is
        not in tau: the facets through t are joined across ridges
        through t, none inside tau, so they lie on one side.  If t is in
        tau, lk t is lk t(A) # lk t'(B) along tau - t: its facets are
        those of A through t and of B through t' less tau and its copy.
        The summands less their open copies of tau - t meet in a
        2-sphere S; Mayer-Vietoris, with H1(S) = H~0(S) = 0 and H3(lk t)
        mapping onto H2(S), makes b1 and b2 add.  A part with g2 = 0 is
        a stacked sphere (Bagchi and Datta, 2008), so its links are
        stacked 3-spheres with (b1, b2) = (0, 0), and the other part
        keeps the parent's numbers; if both parts have g2 > 0, the
        smaller's lk t is built and its numbers are subtracted;
      - an unfolding whose fixed face holds t lowers them by
        ``_LINK_DROPS``.  Let L be lk t after it and L' = lk t before,
        D = tau - t and D' = tau' - t, and M = L less both open
        tetrahedra.  The fold fixes t and is admissible (the step
        refolds it), so it maps M onto L' gluing the spheres of D and
        D', Y = dD u dD', into one sphere S and nothing else: (L', S)
        and (M, Y) have one quotient.  The pair sequences give H1(L') =
        H1(L', S) = H1(M, Y), of dimension b1(M) + dim H~0(Y), since
        H1(Y) = 0 and M is connected.  At a vertex unfolding at t, D and
        D' are disjoint, so b1(L') = b1(L) + 1, and L has 4, 6, 4 and 2
        more vertices, edges, triangles and tetrahedra, so the Euler
        characteristic b2 - b1 is the same: (b1, b2) drops by (1, 1).
        At an edge unfolding along t t1, D and D' meet at t1, so
        b1(L') = b1(L), and L has 3, 6, 4 and 2 more, so b2 - b1 drops
        by one: (b1, b2) drops by (0, 1);
      - any other unfolding carries nothing, and the next step computes
        the numbers from its link where its verdict reads them.
    A failed certificate raises DecompositionError.
    ``PSF_DEBUG_VERIFY=1`` checks every part in full, a ball part
    rebuilt from its simplices: normal, g2 = 0, and its interior faces
    equal to its sorted missing facets, and compares the carried (b1,
    b2) with those of the built link.  It also replays the tree's
    script: it must give back ``k``, with (g2, g3) changed by
    ``fold_deltas`` at each unfolding and additive at each split and
    inverse subdivision.
    """
    engine, part = _start(k, t, mode)
    root = engine.run(part)
    tree = DecompositionTree(engine.steps, root)
    if engine.debug:
        replayed = replay(tree.to_script())
        if replayed.final != k:
            raise DecompositionError("tree replay does not reproduce the input")
        row = next((row for row in replayed.ledger if not row.ok), None)
        if row:
            raise DecompositionError(f"tree script step {row.step} ({row.op}) changed (g2, g3) by "
                                     f"{row.delta_g2, row.delta_g3}, expected {row.expected_g2, row.expected_g3}")
    return tree
