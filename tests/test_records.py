"""The contract of the immutable result records: typing.NamedTuple
classes whose fields cannot be assigned, that compare and hash by their
fields, and whose repr reads ``Name(field=value, ...)``."""

import functools

import pytest

from psf import Complex, join
from psf.build import boundary_simplex, one_vertex_suspension
from psf.buildscript import LedgerRow, ReplayResult, random_script, replay
from psf.corpus import pinched_complex, vertex_folded_instance
from psf.decompose import SplitResult, UnfoldResult, split_connected_sum, vertex_unfold
from psf.enumeration import FVector, GVector, f_vector, h_vector
from psf.separation import (MissingFacetClass, SeparationReport, VertexSeparation,
                            classify_missing_facet, separates_link, separation_report)
from psf.verify import (NormalityReport, OptimalityResult, SingularityVerdict, classify_vertex,
                        is_normal_pseudomanifold, optimality_check)


@functools.lru_cache(maxsize=None)
def _folded():
    """A vertex-folded instance, its fold image and its singular vertex."""
    record = vertex_folded_instance(3)
    return record.complex, record.fold_images[0][1], record.tracked


def _split():
    record = vertex_folded_instance(1, sums=1)
    return split_connected_sum(record.complex, record.sum_joints[0])


# one library-made record of each type, from the arguments _folded() gives
MADE = {
    NormalityReport: lambda k, tau, t: is_normal_pseudomanifold(pinched_complex()),
    SingularityVerdict: lambda k, tau, t: classify_vertex(k, t),
    OptimalityResult: lambda k, tau, t: optimality_check(k, t),
    VertexSeparation: lambda k, tau, t: separates_link(k, tau[1], tau),
    SeparationReport: lambda k, tau, t: separation_report(k, tau),
    MissingFacetClass: lambda k, tau, t: classify_missing_facet(k, tau),
    SplitResult: lambda k, tau, t: _split(),
    UnfoldResult: lambda k, tau, t: vertex_unfold(k, tau, t),
    LedgerRow: lambda k, tau, t: replay(random_script(5)).ledger[-1],
    ReplayResult: lambda k, tau, t: replay(random_script(5)),
    FVector: lambda k, tau, t: f_vector(k),
    GVector: lambda k, tau, t: h_vector(k),
}


@pytest.mark.parametrize("cls", MADE, ids=lambda cls: cls.__name__)
def test_records_are_immutable_named_tuples(cls):
    record = MADE[cls](*_folded())
    assert type(record) is cls and isinstance(record, tuple)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        changed = record._replace(**{name: object()})
        assert type(changed) is cls and changed != record
    same = record._replace()
    assert type(same) is cls and same == record
    assert cls(*record) == record == tuple(record)
    try:
        expected = hash(tuple(record))
    except TypeError:  # a dict or list field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*record)) == expected


def test_record_reprs():
    assert repr(is_normal_pseudomanifold(pinched_complex())) == (
        "NormalityReport(pure=True, ridge_degrees_ok=True, strongly_connected=False, "
        "links_connected=False, witnesses={'disconnected_links': [(5,)]})")
    k, _, t = _folded()
    circles = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    susp = one_vertex_suspension(circles, 0)
    assert [repr(v) for v in (classify_vertex(k, t), classify_vertex(k, max(k.vertices)),
                              classify_vertex(susp, max(susp.vertices)))] == [
        "SingularityVerdict(vertex=0, status='singular', certificate='link gf2 betti (0, 1, 1, 1)')",
        "SingularityVerdict(vertex=32, status='nonsingular', certificate='stacked')",
        "SingularityVerdict(vertex=6, status='unknown', "
        "certificate='sphere-like homology but no constructive certificate')",
    ]


def test_each_early_normality_report_owns_its_witnesses():
    impure = Complex([(0, 1, 2), (2, 3)])
    first, second = is_normal_pseudomanifold(impure), is_normal_pseudomanifold(impure)
    assert first == second == (False, False, False, False, {})
    assert first.witnesses is not second.witnesses
