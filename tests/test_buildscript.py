import pytest

from psf.build import boundary_simplex
from psf.buildscript import (
    ScriptError,
    dump_script,
    load_script,
    random_script,
    replay,
    validate_script,
)
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    singular_base_3d,
    suspension_instance,
    vertex_folded_instance,
)
from psf.fileio import format_complex


def minimal_script():
    return {
        "version": 1,
        "steps": [
            {"op": "boundary_simplex", "n": 5},
            {"op": "complex", "facets": [list(f) for f in
                boundary_simplex(5).relabel({i: i + 10 for i in range(6)}).facets]},
            {
                "op": "connected_sum",
                "left": 0,
                "right": 1,
                "pairs": [[i, i + 10] for i in range(5)],
            },
        ],
    }


def test_replay_minimal_script():
    result = replay(minimal_script())
    assert result.ledger_ok
    assert len(result.final.vertices) == 7
    row = result.ledger[2]
    assert row.op == "connected_sum"
    assert (row.delta_g2, row.delta_g3) == (0, 0)


def test_schema_rejections():
    with pytest.raises(ScriptError):
        validate_script({"version": 2, "steps": []})
    with pytest.raises(ScriptError):
        validate_script({"version": True, "steps": [{"op": "boundary_simplex", "n": 5}]})
    with pytest.raises(ScriptError):
        validate_script({"version": 1, "steps": []})
    with pytest.raises(ScriptError):
        validate_script({"version": 1, "steps": [{"op": "frobnicate"}]})
    with pytest.raises(ScriptError):
        validate_script(
            {"version": 1, "steps": [{"op": "boundary_simplex", "n": 5},
                                     {"op": "cone", "operand": 5, "vertex": 9}]}
        )
    with pytest.raises(ScriptError):
        load_script("{not json")


def test_replay_deterministic_output():
    doc = random_script(99)
    a = replay(doc).final
    b = replay(load_script(dump_script(doc))).final
    assert a == b
    assert format_complex(a) == format_complex(b)


def test_random_scripts_cover_all_laws():
    seen = set()
    for seed in range(24):
        result = replay(random_script(seed))
        assert result.ledger_ok
        seen.update(row.op for row in result.ledger if row.checked)
    assert {"connected_sum", "vertex_fold", "edge_fold", "handle_addition",
            "facet_subdivision"} <= seen


def test_suspension_step():
    doc = {
        "version": 1,
        "steps": [
            {"op": "boundary_simplex", "n": 4},
            {"op": "one_vertex_suspension", "operand": 0, "vertex": 0, "apex": 9},
        ],
    }
    result = replay(doc)
    assert result.final.dim == 4
    assert 9 in result.final.vertices


CORPUS_RECIPES = {
    "vertex_folded_instance": lambda s: vertex_folded_instance(
        s, folds=1 + s % 2, sums=s % 3, subdivisions=s % 2),
    "edge_folded_instance": lambda s: edge_folded_instance(
        s, edge_folds=1 + (s % 5 == 0), vertex_folds=s % 2, sums=s % 2,
        subdivisions=(s // 2) % 2),
    "suspension_instance": lambda s: suspension_instance(
        s, extra_vertex_folds=s % 2, sums=s % 3, subdivisions=s % 2),
    "singular_base_3d": lambda s: singular_base_3d(s, folds=1 + s % 2, subdivisions=s % 3),
}


@pytest.mark.parametrize("name", sorted(CORPUS_RECIPES))
def test_corpus_records_replay_to_their_complex(name):
    for seed in range(40):
        record = CORPUS_RECIPES[name](seed)
        result = replay(load_script(dump_script(record.script)))
        assert result.final == record.complex, (name, seed)
        assert result.ledger_ok, (name, seed)


def test_handle_records_replay_to_their_complex():
    for seed in range(0, 40, 4):
        record = handle_instance(seed)
        result = replay(record.script)
        assert result.final == record.complex, seed
        assert result.ledger_ok, seed
        assert [row.op for row in result.ledger if row.checked][-1] == "handle_addition"
