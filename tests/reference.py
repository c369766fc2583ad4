"""Plain reference versions of library kernels, kept as test oracles.

Each one is the straightforward form a faster library kernel replaced.
The tests check that the kernel gives the same result, and for seeded
kernels that it leaves the random stream in the same state.
"""

import itertools

from psf.build import _admissible_bijections, _facet_pairs_sharing


def listing_draw(kind, k, rng, fixed=(), avoid=None):
    """The list-then-draw fold choice of ``build.random_admissible``.

    Lists every admissible (facet1, facet2, mapping) triple of the whole
    complex in the order of ``_facet_pairs_sharing``, keeps those at the
    ``fixed`` face whose facets miss ``avoid``, and draws one index.
    """
    size = {"vertex_fold": 1, "edge_fold": 2}[kind]
    triples = []
    for f1, f2 in _facet_pairs_sharing(k, size):
        shared = set(f1) & set(f2)
        if fixed and shared != set(fixed):
            continue
        triples += [(f1, f2, m) for m in _admissible_bijections(k, f1, f2, shared)
                    if avoid not in f1 + f2]
    if not triples:
        return None
    return triples[rng.randrange(len(triples))]


def facets_through(k, face):
    """The facets of ``k`` that contain ``face``, by a scan of every
    maximal face: what ``Complex.facets_through`` reads off its index."""
    return tuple(sorted(f for f in k.maximal_faces if set(face) <= set(f)))


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
