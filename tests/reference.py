"""Plain reference versions of library kernels, kept as test oracles.

Each one is the straightforward form a faster library kernel replaced,
or the joint solver a direct read replaced.
The tests check that the kernel gives the same result, and for seeded
kernels that it leaves the random stream in the same state.
"""

import contextlib
import itertools
import re
import sys
from collections import Counter

import pytest

from psf.build import (_HANDLE_ATTEMPTS, _admissible_bijections, _count_matchings, _pair_ok,
                       check_handle_admissible, fold_deltas)
from psf.buildscript import LedgerRow, _construct, _g2g3, _need, validate_script
from psf.complexes import Complex, ComplexError, _integer, fresh_labels
from psf.decompose import _FIELDS, MalformedTree, TreeNode, _refold, _split
from psf.fileio import ParseError
from psf.separation import (PreconditionUnmet, SeparationError, SideAssignmentInconsistent,
                            classify_missing_facet, require_missing_facet, separation_report,
                            two_point_anchors)
from psf.verify import _cut_components, _is_boundary_simplex


def facet_pairs_sharing(k, count):
    """Facet pairs meeting in exactly ``count`` vertices, from the facets
    through each vertex, in order of first appearance in ``k.facets``: the
    listing order that every fold search and draw keeps.  A pair comes
    from the first vertex group that meets it, and a group lists its
    pairs in ``itertools.combinations`` order of the sorted facets."""
    seen = set()
    for v in dict.fromkeys(v for f in k.facets for v in f):
        for f1, f2 in itertools.combinations(k.facets_through((v,)), 2):
            key = (f1, f2) if f1 <= f2 else (f2, f1)
            if key in seen:
                continue
            seen.add(key)
            if len(set(f1) & set(f2)) == count:
                yield key


def star_counts_reference(k, face, avoid):
    """The all-pairs walk that ``build._star_counts`` replaced: every
    pair of facets through ``face`` that miss ``avoid``, with its number
    of admissible bijections when that is not 0, in sorted (f1, f2)
    order.

    The link vertices are numbered and y's partner row is made with
    ``_pair_ok`` the first time y is asked for, each other row's bit for
    y read off that row once it exists.  Every pair is visited: two
    facets meet exactly in the face when their link masks are disjoint,
    a pair with an empty row is dropped, and the rest go to
    ``_count_matchings`` once per distinct tuple of rows in the star.
    """
    facets = [f for f in k.facets_through(face) if avoid not in f]
    bits = {}
    rests, masks = [], []
    for f in facets:
        rest = [v for v in f if v not in face]
        rests.append(rest)
        masks.append(sum(bits.setdefault(v, 1 << len(bits)) for v in rest))
    partners = {}

    def partner(y: int) -> int:
        row = partners.get(y)
        if row is None:
            mine = bits[y]
            row = partners[y] = sum(b for z, b in bits.items() if (
                partners[z] & mine if z in partners else _pair_ok(k, y, z, face)))
        return row

    counts = {}
    counted = []
    for i, f1 in enumerate(facets):
        mask1, table1 = masks[i], [partner(y) for y in rests[i]]
        for f2, mask2 in zip(facets[i + 1:], masks[i + 1:]):
            if mask1 & mask2:
                continue
            rows = tuple([row & mask2 for row in table1])
            if 0 in rows:
                continue
            n = counts.get(rows)
            if n is None:
                n = counts[rows] = _count_matchings(rows)
            if n:
                counted.append((f1, f2, n))
    return counted


def listing_draw(kind, k, rng, fixed=(), avoid=None):
    """The list-then-draw fold choice of ``build.random_admissible``.

    Lists every admissible (facet1, facet2, mapping) triple of the whole
    complex in the order of ``facet_pairs_sharing``, keeps those at the
    ``fixed`` face whose facets miss ``avoid``, and draws one index.
    """
    size = {"vertex_fold": 1, "edge_fold": 2}[kind]
    triples = []
    for f1, f2 in facet_pairs_sharing(k, size):
        shared = set(f1) & set(f2)
        if fixed and shared != set(fixed):
            continue
        triples += [(f1, f2, m) for m in _admissible_bijections(k, f1, f2)
                    if avoid not in f1 + f2]
    if not triples:
        return None
    return triples[rng.randrange(len(triples))]


def oracle_folds(k, size, fixed_face, check):
    """The plain fold search: every facet pair of ``facet_pairs_sharing``
    (at ``fixed_face`` only, when it is given), every
    ``itertools.permutations`` bijection fixing the shared face, each run
    through the full admissibility ``check``."""
    for f1, f2 in facet_pairs_sharing(k, size):
        shared = set(f1) & set(f2)
        if fixed_face is not None and shared != set(fixed_face):
            continue
        rest1 = [v for v in f1 if v not in shared]
        rest2 = [v for v in f2 if v not in shared]
        for perm in itertools.permutations(rest2):
            mapping = {v: v for v in shared}
            mapping.update(zip(rest1, perm))
            if check(k, f1, f2, mapping)[0]:
                yield f1, f2, mapping


def oracle_handles(k, rng=None):
    """The plain handle search: every facet pair, or the pairs a seeded
    search samples, and the first bijection of each that passes the full
    ``check_handle_admissible``."""
    facets = list(k.facets)
    if rng is None:
        pairs = itertools.combinations(facets, 2)
    else:
        pairs = []
        for _ in range(_HANDLE_ATTEMPTS):
            f1, f2 = rng.choice(facets), rng.choice(facets)
            if f1 < f2:
                pairs.append((f1, f2))
    for f1, f2 in pairs:
        if set(f1) & set(f2):
            continue
        for perm in itertools.permutations(f2):
            mapping = dict(zip(f1, perm))
            if check_handle_admissible(k, f1, f2, mapping)[0]:
                yield f1, f2, mapping
                break


def facets_through(k, face):
    """The facets of ``k`` that contain ``face``, by a scan of every
    maximal face: what ``Complex.facets_through`` reads off its index."""
    return tuple(sorted(f for f in k.maximal_faces if set(face) <= set(f)))


def star_scans(k, t):
    """The singular step's three scans at ``t`` of a 4-complex, face by
    face, without the link of t: the vertices other than t that are not
    its neighbours, and the triangles and the 3-faces off t whose join
    with t is no face of ``k``."""
    outside = sorted(v for v in k.vertices if v != t and v not in k.neighbors(t))
    stray, interior = (sorted(f for f in k.faces(j) if t not in f and not k.has_face(f + (t,)))
                       for j in (2, 3))
    return outside, stray, interior


def newest_facet(k, fixed):
    """The facet through ``fixed`` whose labels, read from the largest
    down, are the largest, from the facet index: the facet a
    ``ScriptBuilder`` sum without a source glues at."""
    return max(k.facets_through(fixed), key=lambda f: sorted(f, reverse=True))


def ridge_facets(k):
    """Each codimension-1 face of a maximal face of ``k``, mapped to the
    sorted maximal faces it is a codimension-1 face of, by a scan of
    every maximal face: what ``Complex.facets_through`` gives ridge by
    ridge on a pure complex."""
    table = {}
    for f in sorted(k.maximal_faces):
        for r in itertools.combinations(f, len(f) - 1):
            table.setdefault(r, []).append(f)
    return {r: tuple(fs) for r, fs in table.items()}


@contextlib.contextmanager
def trusted_against_init():
    """Check every ``Complex._trusted`` result made inside the block against
    ``Complex(facets)``, the constructor that sorts, checks and filters
    its input: the same maximal faces, dimension, purity, vertices and
    sorted facets.  Yields the set of the names of the functions that
    called ``_trusted``, filled in as the block runs."""
    trusted = Complex._trusted.__func__
    callers = set()

    def checked(cls, facets):
        facets = list(facets)
        k, ref = trusted(cls, facets), Complex(facets)
        assert (k.maximal_faces, k.dim, k.vertices, k.facets) == (
            ref.maximal_faces, ref.dim, ref.vertices, ref.facets), facets
        assert k.is_pure == ref.is_pure, facets
        callers.add(sys._getframe(1).f_code.co_name)
        return k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Complex, "_trusted", classmethod(checked))
        yield callers


def antichain(faces):
    """The faces of the collection that lie in no other face of it, by a
    quadratic filter."""
    unique = set(faces)
    return frozenset(f for f in unique if not any(set(f) < set(g) for g in unique))


def reference_identify(k, mapping, merged):
    """Identify along ``mapping`` in ``k``: relabel every maximal face,
    moving target vertices to their source partners, dedupe, and drop
    the merged facet.  A connected sum is this on the union of its
    operands' maximal faces."""
    rev = {t: s for s, t in mapping.items()}
    facets = {tuple(sorted(rev.get(v, v) for v in f)) for f in k.maximal_faces}
    facets.discard(tuple(sorted(merged)))
    return Complex(facets)


def reference_replay(doc):
    """Replay that keeps every step's complex and reads each operand's
    (g2, g3) off the operand complex itself, one ledger branch per kind
    of checked op; the complexes and the ledger."""
    steps = validate_script(doc)
    complexes, ledger = [], []
    for i, step in enumerate(steps):
        result = _construct(step, lambda key: complexes[_need(step, key)])
        complexes.append(result)
        op = step["op"]
        cur2, cur3 = _g2g3(result)
        if op == "connected_sum":
            l2, l3 = _g2g3(complexes[step["left"]])
            r2, r3 = _g2g3(complexes[step["right"]])
            row = LedgerRow(
                i, op, cur2, cur3,
                delta_g2=None if cur2 is None else cur2 - l2 - r2,
                delta_g3=None if cur3 is None else cur3 - l3 - r3,
                expected_g2=0 if cur2 is not None else None,
                expected_g3=0 if cur3 is not None else None,
            )
        elif op in ("handle_addition", "vertex_fold", "edge_fold", "facet_subdivision"):
            operand = complexes[step["operand"]]
            o2, o3 = _g2g3(operand)
            e2, e3 = (0, 0) if op == "facet_subdivision" else fold_deltas(op, operand.dim)
            row = LedgerRow(
                i, op, cur2, cur3,
                delta_g2=None if cur2 is None else cur2 - o2,
                delta_g3=None if cur3 is None or o3 is None else cur3 - o3,
                expected_g2=e2 if cur2 is not None else None,
                expected_g3=e3 if cur3 is not None and o3 is not None else None,
            )
        else:
            row = LedgerRow(i, op, cur2, cur3)
        ledger.append(row)
    return complexes, ledger


def outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def vertex_sides(sides, t):
    """The index of the side whose facets contain each vertex off ``t``.

    A vertex off the barrier has all its incident facets in one
    component, so the index is well defined.
    """
    table = {}
    for i, side in enumerate(sides):
        for f in side:
            for w in f:
                if w not in t and table.setdefault(w, i) != i:
                    raise SideAssignmentInconsistent(f"vertex {w} meets sides [0, 1]")
    return table


def parity_sides(k, anchor_vertex, report):
    """Coherent plus/minus side assignment for every separating vertex of
    the missing facet of ``report``.

    Ridge links inside tau provide two-point anchors.  Orientations of
    all anchors and side polarities of all separating vertices are
    solved as one parity system; the anchor ridge opposite
    ``anchor_vertex`` is oriented with its smaller label positive.
    Returns ``sides`` with ``sides[x]`` mapping each vertex of the link
    of x off tau to 0 on the plus side and 1 on the minus side, or
    raises ``SideAssignmentInconsistent``.
    """
    t = report.missing_facet
    anchors = two_point_anchors(k, t)

    separating = [x for x in t if report.per_vertex[x].separates]
    if not separating:
        raise PreconditionUnmet("no separating vertex to orient")

    # Parity union-find over anchor orientations and vertex polarities.
    parity = {}

    def find(node):
        if node not in parity:
            parity[node] = (node, 0)
            return node, 0
        root, par = parity[node]
        if root == node:
            return node, par
        r, p = find(root)
        parity[node] = (r, par ^ p)
        return r, par ^ p

    def union(a, b, rel):
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa ^ pb != rel:
                raise SideAssignmentInconsistent(f"parity conflict between {a} and {b}")
            return
        parity[ra] = (rb, pa ^ pb ^ rel)

    tables = {}
    for x in separating:
        side = tables[x] = vertex_sides(report.per_vertex[x].sides, t)
        for y in t:
            if y == x:
                continue
            q0, q1 = anchors[y]
            if side[q0] == side[q1]:
                raise SideAssignmentInconsistent(
                    f"anchor pair {q0},{q1} of ridge opposite {y} lies on one side of link({x})"
                )
            union(("ridge", y), ("vertex", x), side[q0])

    # Fix the global sign: anchor ridge oriented with q0 positive.
    _, flip = find(("ridge", anchor_vertex))

    out = {}
    for x, side in tables.items():
        _, p = find(("vertex", x))
        out[x] = {w: s ^ p ^ flip for w, s in side.items()}
    return out


def witness_unfold(fold, k, fixed, report):
    """The unfolding of ``decompose._unfold`` with sides from
    ``parity_sides``: a facet votes with the side of each witness (its
    vertices off t) in the link of each of its moved vertices."""
    t = report.missing_facet
    sides = parity_sides(k, fixed[0], report)
    others = [x for x in t if x not in fixed]
    copy = dict(zip(others, fresh_labels(k, len(others))))

    rewritten = set()
    for f in k.maximal_faces:
        overlap = [x for x in f if x in copy]
        if overlap:
            votes = {sides[x][w] for x in overlap for w in f if w not in t}
            if len(votes) != 1:
                raise SideAssignmentInconsistent(
                    f"facet {f} is assigned to different sides by its tau-vertices"
                )
            if votes.pop() == 1:
                f = tuple(sorted(copy.get(x, x) for x in f))
        rewritten.add(f)

    target = tuple(sorted([*fixed, *copy.values()]))
    facets = rewritten | {t, target}
    unfolded = Complex._trusted(facets)
    return _refold(fold, k, unfolded, t, target, {**dict(zip(fixed, fixed)), **copy})


def link_anchors_reference(k, t):
    """Two-point anchors read off the link of each ridge of t."""
    anchors = {}
    for y in t:
        ridge = tuple(v for v in t if v != y)
        pair = sorted(k.link(ridge).vertices)
        if len(pair) != 2:
            raise SeparationError(f"link of ridge {ridge} is not two points: {pair}")
        anchors[y] = (pair[0], pair[1])
    return anchors


def link_cut_reference(k, face, tau):
    """The link-building cut: components of the facet graph of the built
    link of ``face``, without the adjacencies across ridges inside
    tau - face, in order of their smallest facet."""
    link = k.link(tuple(face))
    barrier = set(tau) - set(face)
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


def reference_unfold(k, tau, fixed):
    """Unfolding along ``tau`` as two constructions, one per fold kind.

    The plus side of the link of each vertex x of tau off the fixed face
    is the side holding the smaller apex over the ridge of tau opposite
    ``fixed[0]``, read off link-built anchors.  Facets whose witnesses
    (their vertices off tau) lie on the minus side take fresh copies of
    their tau-vertices.  A vertex unfold drops the facets through v and
    cones the boundary of the rest from v; an edge unfold adds tau and
    its copy.  Returns ``(complex, source, target, pairs)``.

    It refuses unless the fixed face is a face of ``k`` inside tau, none
    of its vertices separates its link, every other vertex of tau does,
    and the link of a fixed edge is one piece; the refusal names the
    class that ``classify_missing_facet`` finds.
    """
    t = require_missing_facet(k, tau)
    fixed = tuple(sorted(fixed))
    kind, at = ("vertex_fold", fixed[0]) if len(fixed) == 1 else ("edge_fold", fixed)

    def refusal():
        cls = classify_missing_facet(k, t)
        found = cls.edge if cls.vertex is None else cls.vertex
        where = "" if found is None else f" at {found}"
        return PreconditionUnmet(f"missing facet {t} is classified {cls.kind}{where}, "
                                 f"not {kind} at {at}")

    if not set(fixed) <= set(t) or not k.has_face(fixed):
        raise refusal()
    report = separation_report(k, t)
    others = [x for x in t if x not in fixed]
    if any(report.per_vertex[y].separates for y in fixed):
        raise refusal()
    if not all(report.per_vertex[x].separates for x in others):
        raise refusal()
    if len(fixed) == 2 and len(link_cut_reference(k, fixed, t)) != 1:
        raise refusal()

    q0 = link_anchors_reference(k, t)[fixed[0]][0]
    minus = {}
    for x in others:
        (minus_side,) = [side for side in report.per_vertex[x].sides
                         if not any(q0 in f for f in side)]
        minus[x] = {w for f in minus_side for w in f} - set(t)
    copy = dict(zip(others, fresh_labels(k, len(others))))
    rewritten = set()
    for f in k.maximal_faces:
        if len(fixed) == 1 and fixed[0] in f:
            continue
        votes = {w in minus[x] for x in f if x in copy for w in f if w not in t}
        assert len(votes) <= 1, f"facet {f} straddles the sides"
        rewritten.add(tuple(sorted(copy.get(x, x) for x in f)) if votes == {True} else f)
    target = tuple(sorted([*fixed, *copy.values()]))
    if len(fixed) == 1:
        boundary = [r for r, fs in ridge_facets(Complex(rewritten)).items() if len(fs) == 1]
        unfolded = Complex(rewritten | {tuple(sorted(r + fixed)) for r in boundary})
    else:
        unfolded = Complex(rewritten | {t, target})
    return unfolded, t, target, tuple(sorted({**dict(zip(fixed, fixed)), **copy}.items()))


def joint_colors(k1, k2):
    """Joint Weisfeiler-style color refinement over both vertex sets.

    Colors are comparable across the two complexes because signatures
    are canonicalised through one shared table.  Returns None as soon
    as the color histograms disagree.
    """

    def initial(k):
        # The faces of the link of v are the faces through v less v, up
        # to the size of the largest maximal face through v.
        through = Counter((v, len(f)) for j in range(1, k.dim + 1) for f in k.faces(j) for v in f)
        sig = {}
        for v in k.vertices:
            profile = tuple(sorted(len(f) for f in k.facets_through((v,))))
            link_f = (1, *(through[v, size] for size in range(2, profile[-1] + 1)))
            sig[v] = (len(k.neighbors(v)), profile, link_f)
        return sig

    sigs = (initial(k1), initial(k2))
    table = {}
    colors = [{}, {}]
    for side in (0, 1):
        for v, s in sigs[side].items():
            colors[side][v] = table.setdefault(s, len(table))

    for _ in range(len(k1.vertices) + 1):
        table = {}
        new = [{}, {}]
        for side, k in ((0, k1), (1, k2)):
            for v in k.vertices:
                s = (colors[side][v],
                     tuple(sorted(colors[side][u] for u in k.neighbors(v))))
                new[side][v] = table.setdefault(s, len(table))
        if sorted(new[0].values()) != sorted(new[1].values()):
            return None
        stable = all(
            len(set(new[s].values())) == len(set(colors[s].values())) for s in (0, 1)
        )
        colors = new
        if stable:
            break
    if sorted(colors[0].values()) != sorted(colors[1].values()):
        return None
    return colors[0], colors[1]


def reference_colors(k):
    """``complexes._colors`` as it counted the link f-vectors before its
    per-size C-level counts: one ``(v, len(f))`` key per vertex of every
    face, and the facet profile read off ``facets_through`` per vertex."""
    # The faces of the link of v are the faces through v less v, up to
    # the size of the largest maximal face through v.
    through = Counter((v, len(f)) for j in range(1, k.dim + 1) for f in k.faces(j) for v in f)
    colors = {}
    for v in k.vertices:
        profile = tuple(sorted(len(f) for f in k.facets_through((v,))))
        link_f = (1, *(through[v, size] for size in range(2, profile[-1] + 1)))
        colors[v] = hash((len(k.neighbors(v)), profile, link_f))
    for _ in range(len(k.vertices) + 1):
        new = {v: hash((c, tuple(sorted(colors[u] for u in k.neighbors(v)))))
               for v, c in colors.items()}
        stable = len(set(new.values())) == len(set(colors.values()))
        colors = new
        if stable:
            break
    return colors


_TOKEN = re.compile(r"[^ \t\v\f\r]+")
_LABEL = re.compile(r"-?[0-9]+")


def reference_parse_complex(text: str) -> Complex:
    """The token-by-token facet-file parser that ``fileio.parse_complex``
    replaced.  It reports facets of differing length at line 1, column 1."""
    facets: list[list[int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        row: list[int] = []
        repeat = None
        for match in _TOKEN.finditer(raw.split("#", 1)[0]):
            token, column = match.group(), match.start() + 1
            if not _LABEL.fullmatch(token):
                raise ParseError(f"not an integer: {token!r}", lineno, column)
            if token[0] == "-":
                raise ParseError(f"negative vertex label {token}", lineno, column)
            try:
                label = int(token)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"vertex label too long ({len(token)} digits)", lineno, column) from None
            if label in row and repeat is None:
                repeat = ParseError(f"repeated vertex {label} in facet", lineno, column)
            row.append(label)
        if repeat is not None:
            raise repeat
        if row:
            facets.append(row)
    if not facets:
        raise ParseError("no facets in file", 1, 1)
    lengths = {len(r) for r in facets}
    if len(lengths) > 1:
        raise ParseError(f"facet lengths differ: {sorted(lengths)}", 1, 1)
    return Complex.from_facets(facets)


def reference_integers(value, depth: int):
    """The level-by-level reading of a tree node field that
    ``decompose._integers`` reads in one type pass when it can."""
    if depth == 0:
        return _integer(value)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(reference_integers(v, depth - 1) for v in value)


def reference_tree_node(data: dict) -> TreeNode:
    """``TreeNode.from_dict`` with every field read by ``reference_integers``."""
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
                fields[key] = reference_integers(data[key], depth)
            except (TypeError, ComplexError) as exc:
                raise MalformedTree(f"bad field {key!r} in tree node {data!r}: {exc}") from exc
    return TreeNode(kind, leaf_kind=leaf_kind, **fields)


def reference_stacked_steps(k):
    """The nodes, in post-order, of the split-by-split stacked path that
    ``decompose._Engine.ball`` replaced, on a stacked d-sphere ``k``.

    A part that is no simplex boundary is cut along its first missing
    facet by the global cut and split by ``decompose._split``, ridge
    certificate included.  The input lists its sorted missing facets
    once; part A keeps those whose vertices it holds, and part B the
    others, relabelled and sorted again."""
    steps = []

    def reduce(part, missing):
        if _is_boundary_simplex(part):
            steps.append(TreeNode("leaf", leaf_kind="boundary_simplex", n=part.dim + 1,
                                  facets=part.facets))
            return len(steps) - 1
        tau = missing[0]
        split = _split(part, tau, _cut_components(part.maximal_faces, set(tau)))
        rest = [s for s in missing if s != tau]
        in_a = split.part_a.vertices
        kept_a = [s for s in rest if in_a.issuperset(s)]
        kept_b = sorted(tuple(sorted(split.pairing.get(v, v) for v in s))
                        for s in rest if not in_a.issuperset(s))
        children = (reduce(split.part_a, kept_a), reduce(split.part_b, kept_b))
        steps.append(TreeNode("split", children=children, missing_facet=tau,
                              pairs=tuple(sorted(split.pairing.items()))))
        return len(steps) - 1

    reduce(k, sorted(k.missing_simplices(k.dim)))
    return steps
