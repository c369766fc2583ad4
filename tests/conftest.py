import pytest

from psf import Complex, join
from psf.build import (
    boundary_simplex,
    edge_fold,
    find_edge_folds,
    find_vertex_folds,
    one_vertex_suspension,
    stacked_sphere,
    vertex_fold,
)
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    suspension_instance,
    vertex_folded_instance,
)


@pytest.fixture(scope="session")
def shared_corpus():
    """Assorted normal 4-pseudomanifolds reused by the corpus-wide criteria."""
    circle = Complex([[3, 4], [4, 5], [3, 5]])
    items = [
        ("boundary", boundary_simplex(5)),
        ("stacked-2", stacked_sphere(4, 2, 11)),
        ("stacked-5", stacked_sphere(4, 5, 12)),
        ("chain", linear_chain(4, 8, 13, fixed=(0,))),
        ("vfold-1", vertex_folded_instance(101).complex),
        ("vfold-2", vertex_folded_instance(102, folds=2, sums=1).complex),
        ("vfold-decorated", vertex_folded_instance(103, sums=2, subdivisions=2).complex),
        ("efold-1", edge_folded_instance(104).complex),
        ("efold-mixed", edge_folded_instance(105, edge_folds=1, vertex_folds=1).complex),
        ("handle", handle_instance(106).complex),
        ("suspension", suspension_instance(107).complex),
        ("suspension-decorated", suspension_instance(108, sums=1, subdivisions=1).complex),
        ("suspension-of-sphere", one_vertex_suspension(linear_chain(3, 4, 109, fixed=(0,)), 0)),
        ("suspension-of-join", one_vertex_suspension(join(boundary_simplex(2), circle), 0)),
    ]
    return items


@pytest.fixture(scope="session")
def fold_images():
    """``(complex, missing facet)`` for every fold image and sum joint of
    vertex-, edge- and suspension-folded instances, and for folds of
    chains through a fixed vertex or edge."""
    records = []
    for s in range(4):
        records += [
            vertex_folded_instance(300 + s, folds=1 + s % 2, sums=s % 3, subdivisions=s % 2),
            edge_folded_instance(400 + s, edge_folds=1 + (s == 2), vertex_folds=s % 2,
                                 sums=s % 2, subdivisions=s // 2),
            suspension_instance(500 + s, extra_vertex_folds=s % 2, sums=s // 2,
                                subdivisions=s == 1),
        ]
    items = [(r.complex, tau) for r in records
             for tau in [image for _, image in r.fold_images] + r.sum_joints]
    for s in range(2):
        chain = linear_chain(4, 10, 600 + s, fixed=(0,))
        for f1, f2, mapping in list(find_vertex_folds(chain, fixed_vertex=0))[:3]:
            items.append((vertex_fold(chain, f1, f2, mapping), f1))
        chain = linear_chain(4, 9, 700 + s, fixed=(0, 1))
        for f1, f2, mapping in list(find_edge_folds(chain, fixed_edge=(0, 1)))[:3]:
            items.append((edge_fold(chain, f1, f2, mapping), f1))
    return items
