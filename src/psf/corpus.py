"""Seeded instance builders for tests, the identity harness and experiments.

The interesting inputs for folding and decomposition are stacked
spheres with enough combinatorial distance between facets: a linear
chain of simplex boundaries retires one old vertex per summand, so the
two ends of a long chain share nothing but the pinned vertices.  All
builders take a seed and are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import Complex, Simplex
from .build import (
    SplitMix64,
    _fold_triples,
    _glue_fresh_boundary,
    boundary_simplex,
    connected_sum,
    edge_fold,
    facet_subdivision,
    find_handles,
    handle_addition,
    one_vertex_suspension,
    vertex_fold,
)

VERTEX_ARM = 10  # summands per arm; shortest length with admissible far pairs
EDGE_ARM = 9
VERTEX_ARM_3D = 8


@dataclass
class BuildRecord:
    """A constructed instance together with what was done to build it."""

    complex: Complex
    tracked: Optional[int] = None
    companion: Optional[int] = None
    vertex_folds: int = 0
    edge_folds: int = 0
    sums: int = 0
    subdivisions: int = 0
    fold_images: list[tuple[str, Simplex]] = field(default_factory=list)
    sum_joints: list[Simplex] = field(default_factory=list)
    history: list[str] = field(default_factory=list)


def linear_chain(d: int, summands: int, seed: int, fixed: tuple[int, ...] = ()) -> Complex:
    """Stacked d-sphere built as a linear chain of simplex boundaries.

    Every identified facet contains the ``fixed`` vertices, so they
    survive the whole chain and the far ends meet only in them.
    """
    return grow_arm(boundary_simplex(d + 1), SplitMix64(seed), fixed, summands - 1)


def grow_arm(cur: Complex, rng: SplitMix64, fixed: tuple[int, ...],
             summands: int, first_src: Optional[Simplex] = None) -> Complex:
    """Extend a complex by a linear arm through the fixed vertices.

    Each summand is a fresh simplex boundary glued to the facet through
    the fixed vertices with the newest labels; ``first_src`` overrides
    that facet for the first summand.
    """
    for i in range(summands):
        src = first_src if i == 0 else None
        cur = connected_sum(cur, *_glue_fresh_boundary(cur, rng, fixed, src))
    return cur


def _pick(rng: SplitMix64, items):
    items = sorted(items)
    return items[rng.randrange(len(items))]


def _fold_at(record: BuildRecord, rng: SplitMix64, fixed: tuple[int, ...],
             avoid: Optional[int] = None) -> None:
    """Grow an arm through ``fixed`` and apply one admissible fold there:
    a vertex fold at one fixed vertex, an edge fold along two.  With
    ``avoid``, the arm starts at a facet without it and the fold keeps
    off it."""
    k = record.complex
    vertex = len(fixed) == 1
    kind = "vertex_fold" if vertex else "edge_fold"
    arm = (VERTEX_ARM if k.dim == 4 else VERTEX_ARM_3D) if vertex else EDGE_ARM
    first_src = None
    if avoid is not None:
        first_src = _pick(rng, [f for f in k.facets if set(fixed) <= set(f) and avoid not in f])
    k = grow_arm(k, rng, fixed, arm, first_src=first_src)
    record.sums += arm
    folds = [(f1, f2, m) for f1, f2, m in _fold_triples(k, len(fixed), fixed)
             if avoid not in f1 + f2]
    at = "".join(map(str, fixed))
    if not folds:
        raise RuntimeError(f"no admissible {kind.replace('_', ' ')} at {at} after growing an arm")
    f1, f2, mapping = folds[rng.randrange(len(folds))]
    record.complex = (vertex_fold if vertex else edge_fold)(k, f1, f2, mapping)
    if vertex:
        record.vertex_folds += 1
    else:
        record.edge_folds += 1
    record.fold_images.append((kind, f1))
    record.history.append(f"{kind} at {at} merging {f1}~{f2}")


def decorate(record: BuildRecord, rng: SplitMix64, sums: int = 0, subdivisions: int = 0) -> None:
    """Optimality-preserving extras: sums with fresh simplex boundaries
    and facet subdivisions at random facets."""
    for _ in range(sums):
        src = _pick(rng, record.complex.facets)
        summand, mapping = _glue_fresh_boundary(record.complex, rng, (), src)
        record.complex = connected_sum(record.complex, summand, mapping)
        record.sums += 1
        record.sum_joints.append(src)
        record.history.append(f"connected_sum at {src}")
    for _ in range(subdivisions):
        facet = _pick(rng, record.complex.facets)
        record.complex = facet_subdivision(record.complex, facet)
        record.subdivisions += 1
        record.history.append(f"facet_subdivision at {facet}")


def vertex_folded_instance(seed: int, folds: int = 1, sums: int = 0,
                           subdivisions: int = 0) -> BuildRecord:
    """Optimal normal 4-pseudomanifold with one singular vertex:
    ``folds`` vertex foldings at a common vertex of stacked spheres."""
    rng = SplitMix64(seed)
    t = 0
    record = BuildRecord(boundary_simplex(5), tracked=t)
    for _ in range(folds):
        _fold_at(record, rng, (t,))
    decorate(record, rng, sums, subdivisions)
    return record


def edge_folded_instance(seed: int, edge_folds: int = 1, vertex_folds: int = 0,
                         sums: int = 0, subdivisions: int = 0) -> BuildRecord:
    """Optimal normal 4-pseudomanifold with two singular vertices:
    ``edge_folds`` foldings along one edge, then ``vertex_folds``
    foldings at one of its ends, inside arms the other end cannot see."""
    rng = SplitMix64(seed)
    t, t1 = 0, 1
    record = BuildRecord(boundary_simplex(5), tracked=t, companion=t1)
    for _ in range(edge_folds):
        _fold_at(record, rng, (t, t1))
    for _ in range(vertex_folds):
        _fold_at(record, rng, (t,), avoid=t1)
    decorate(record, rng, sums, subdivisions)
    return record


def singular_base_3d(seed: int, folds: int = 1, subdivisions: int = 0) -> BuildRecord:
    """Normal 3-pseudomanifold, singular exactly at vertex 0, with 0 a
    graph cone point (every edge lies in a facet through 0)."""
    rng = SplitMix64(seed)
    t = 0
    record = BuildRecord(boundary_simplex(4), tracked=t)
    for _ in range(folds):
        _fold_at(record, rng, (t,))
    for _ in range(subdivisions):
        facet = _pick(rng, [f for f in record.complex.facets if t in f])
        record.complex = facet_subdivision(record.complex, facet)
        record.subdivisions += 1
    return record


def cone_point_base_3d(seed: int) -> tuple[Complex, int]:
    """Random normal 3-pseudomanifold together with a graph cone point.

    Bases alternate between plain stacked spheres grown around the
    point and singular folded ones.
    """
    rng = SplitMix64(seed)
    style = rng.randrange(3)
    if style == 0:
        k = linear_chain(3, 2 + rng.randrange(6), seed * 2 + 1, fixed=(0,))
        record = BuildRecord(k, tracked=0)
    else:
        record = singular_base_3d(seed * 2 + 1, folds=1)
    for _ in range(rng.randrange(3)):
        facet = _pick(rng, [f for f in record.complex.facets if 0 in f])
        record.complex = facet_subdivision(record.complex, facet)
    return record.complex, 0


def suspension_instance(seed: int, extra_vertex_folds: int = 0,
                        sums: int = 0, subdivisions: int = 0) -> BuildRecord:
    """Optimal 4-pseudomanifold with two singularities built as the
    one-vertex suspension of a singular 3-dimensional base, optionally
    wrapped in vertex foldings at the apex and connected sums."""
    rng = SplitMix64(seed)
    base = singular_base_3d(seed * 3 + 2, folds=1)
    pole = base.tracked
    susp = one_vertex_suspension(base.complex, pole)
    apex = max(susp.vertices)
    record = BuildRecord(susp, tracked=apex, companion=pole)
    record.history.append(f"suspension of 3d base at pole {pole}, apex {apex}")
    for _ in range(extra_vertex_folds):
        _fold_at(record, rng, (apex,), avoid=pole)
    decorate(record, rng, sums, subdivisions)
    return record


def handle_instance(seed: int, chain: int = 13) -> BuildRecord:
    """Normal 4-manifold built by one handle addition on a long stacked sphere."""
    rng = SplitMix64(seed)
    k = linear_chain(4, chain, seed)
    triple = next(find_handles(k), None)
    if triple is None:
        raise RuntimeError("no admissible handle on the chain")
    f1, f2, mapping = triple
    record = BuildRecord(handle_addition(k, f1, f2, mapping))
    record.fold_images.append(("handle_like", f1))
    record.history.append(f"handle merging {f1}~{f2}")
    record.sums = chain - 1
    return record


def pinched_complex() -> Complex:
    """Two 4-spheres sharing one vertex: fails link connectivity at it."""
    a = boundary_simplex(5)
    b = boundary_simplex(5).relabel({0: 5, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10})
    return Complex(set(a.maximal_faces) | set(b.maximal_faces))


def projective_plane_6() -> Complex:
    """The 6-vertex triangulation of the real projective plane."""
    return Complex(
        [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
        ]
    )
