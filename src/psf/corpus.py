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
from .build import SplitMix64, boundary_simplex, find_handles
from .buildscript import EDGE_ARM, VERTEX_ARM, ScriptBuilder

VERTEX_ARM_3D = 8  # VERTEX_ARM for 3-dimensional arms


@dataclass
class BuildRecord:
    """A seeded instance with the build script that replays to it.

    ``tracked`` and ``companion`` are the singular vertices the recipe
    made.  ``fold_images`` holds the kind (``vertex_fold``,
    ``edge_fold`` or ``handle_like``) and the missing facet of each fold
    or handle; ``sum_joints`` the facets at which decorating sums were
    glued, each a missing facet that splits the instance.
    """

    complex: Complex
    script: dict
    tracked: Optional[int] = None
    companion: Optional[int] = None
    fold_images: list[tuple[str, Simplex]] = field(default_factory=list)
    sum_joints: list[Simplex] = field(default_factory=list)

    @property
    def vertex_folds(self) -> int:
        return sum(kind == "vertex_fold" for kind, _ in self.fold_images)

    @property
    def edge_folds(self) -> int:
        return sum(kind == "edge_fold" for kind, _ in self.fold_images)


def _chain(d: int, summands: int, seed: int, fixed: tuple[int, ...]) -> ScriptBuilder:
    b = ScriptBuilder(SplitMix64(seed), d + 1)
    b.arm(fixed, summands - 1)
    return b


def linear_chain(d: int, summands: int, seed: int, fixed: tuple[int, ...] = ()) -> Complex:
    """Stacked d-sphere built as a linear chain of simplex boundaries.

    Every identified facet contains the ``fixed`` vertices, so they
    survive the whole chain and the far ends meet only in them.
    """
    return _chain(d, summands, seed, fixed).current


def _fold_at(b: ScriptBuilder, fixed: tuple[int, ...],
             avoid: Optional[int] = None) -> tuple[str, Simplex]:
    """Grow an arm through ``fixed`` and apply one admissible fold there:
    a vertex fold at one fixed vertex, an edge fold along two.  With
    ``avoid``, the arm starts at a facet without it and the fold keeps
    off it.  Returns the kind of fold and its missing facet."""
    vertex = len(fixed) == 1
    kind = "vertex_fold" if vertex else "edge_fold"
    arm = (VERTEX_ARM if b.current.dim == 4 else VERTEX_ARM_3D) if vertex else EDGE_ARM
    b.arm(fixed, arm, None if avoid is None else b.pick(fixed, avoid))
    triple = b.fold(kind, fixed, avoid)
    if triple is None:
        at = "".join(map(str, fixed))
        raise RuntimeError(f"no admissible {kind.replace('_', ' ')} at {at} after growing an arm")
    return kind, triple[0]


def _decorate(b: ScriptBuilder, sums: int, subdivisions: int) -> list[Simplex]:
    """Optimality-preserving extras: sums with fresh simplex boundaries
    and facet subdivisions at seeded facets.  Returns the sum joints."""
    joints = []
    for _ in range(sums):
        joints.append(b.pick())
        b.sum(joints[-1])
    for _ in range(subdivisions):
        b.subdivide(b.pick())
    return joints


def vertex_folded_instance(seed: int, folds: int = 1, sums: int = 0,
                           subdivisions: int = 0) -> BuildRecord:
    """Optimal normal 4-pseudomanifold with one singular vertex:
    ``folds`` vertex foldings at a common vertex of stacked spheres."""
    b = ScriptBuilder(SplitMix64(seed), 5)
    images = [_fold_at(b, (0,)) for _ in range(folds)]
    joints = _decorate(b, sums, subdivisions)
    return BuildRecord(b.current, b.script, tracked=0, fold_images=images, sum_joints=joints)


def edge_folded_instance(seed: int, edge_folds: int = 1, vertex_folds: int = 0,
                         sums: int = 0, subdivisions: int = 0) -> BuildRecord:
    """Optimal normal 4-pseudomanifold with two singular vertices:
    ``edge_folds`` foldings along one edge, then ``vertex_folds``
    foldings at one of its ends, inside arms the other end cannot see."""
    t, t1 = 0, 1
    b = ScriptBuilder(SplitMix64(seed), 5)
    images = [_fold_at(b, (t, t1)) for _ in range(edge_folds)]
    images += [_fold_at(b, (t,), avoid=t1) for _ in range(vertex_folds)]
    joints = _decorate(b, sums, subdivisions)
    return BuildRecord(b.current, b.script, tracked=t, companion=t1, fold_images=images,
                       sum_joints=joints)


def _singular_base(seed: int, folds: int,
                   subdivisions: int = 0) -> tuple[ScriptBuilder, list[tuple[str, Simplex]]]:
    """The builder of ``singular_base_3d`` and the images of its folds."""
    b = ScriptBuilder(SplitMix64(seed), 4)
    images = [_fold_at(b, (0,)) for _ in range(folds)]
    for _ in range(subdivisions):
        b.subdivide(b.pick((0,)))
    return b, images


def singular_base_3d(seed: int, folds: int = 1, subdivisions: int = 0) -> BuildRecord:
    """Normal 3-pseudomanifold, singular exactly at vertex 0, with 0 a
    graph cone point (every edge lies in a facet through 0)."""
    b, images = _singular_base(seed, folds, subdivisions)
    return BuildRecord(b.current, b.script, tracked=0, fold_images=images)


def cone_point_base_3d(seed: int) -> tuple[Complex, int]:
    """Random normal 3-pseudomanifold together with a graph cone point.

    Bases alternate between plain stacked spheres grown around the
    point and singular folded ones.
    """
    rng = SplitMix64(seed)
    if rng.randrange(3) == 0:
        b = _chain(3, 2 + rng.randrange(6), seed * 2 + 1, (0,))
    else:
        b, _ = _singular_base(seed * 2 + 1, folds=1)
    b.rng = rng
    for _ in range(rng.randrange(3)):
        b.subdivide(b.pick((0,)))
    return b.current, 0


def suspension_instance(seed: int, extra_vertex_folds: int = 0,
                        sums: int = 0, subdivisions: int = 0) -> BuildRecord:
    """Optimal 4-pseudomanifold with two singularities built as the
    one-vertex suspension of a singular 3-dimensional base, optionally
    wrapped in vertex foldings at the apex and connected sums."""
    pole = 0
    b, _ = _singular_base(seed * 3 + 2, folds=1)
    apex = b.suspend(pole)
    b.rng = SplitMix64(seed)
    images = [_fold_at(b, (apex,), avoid=pole) for _ in range(extra_vertex_folds)]
    joints = _decorate(b, sums, subdivisions)
    return BuildRecord(b.current, b.script, tracked=apex, companion=pole, fold_images=images,
                       sum_joints=joints)


def handle_instance(seed: int, chain: int = 13) -> BuildRecord:
    """Normal 4-manifold built by one handle addition on a long stacked sphere."""
    b = _chain(4, chain, seed, ())
    triple = next(find_handles(b.current), None)
    if triple is None:
        raise RuntimeError("no admissible handle on the chain")
    b.apply("handle_addition", *triple)
    return BuildRecord(b.current, b.script, fold_images=[("handle_like", triple[0])])


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
