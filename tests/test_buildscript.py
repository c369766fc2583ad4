import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psf import Complex
from psf.build import SplitMix64, boundary_simplex
from psf.buildscript import (
    ScriptBuilder,
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
from reference import newest_facet, reference_identify, reference_replay, trusted_against_init


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


def _assert_replay_matches_reference(doc):
    complexes, ledger = reference_replay(doc)
    result = replay(doc)
    assert result.ledger == ledger
    assert result.final == complexes[-1]


def _family_seed(family: int, start: int) -> int:
    """The first seed from ``start`` on whose ``random_script`` is of ``family``."""
    seed = start
    while SplitMix64(seed).randrange(4) != family:
        seed += 1
    return seed


scripts_of_every_family = st.builds(
    lambda family, start: random_script(_family_seed(family, start)),
    st.integers(0, 3), st.integers(0, 2**40))


@settings(max_examples=40, deadline=None)
@given(scripts_of_every_family)
def test_replay_matches_reference_on_random_scripts(doc):
    _assert_replay_matches_reference(doc)


@pytest.mark.parametrize("name", sorted(CORPUS_RECIPES))
def test_replay_matches_reference_on_corpus_scripts(name):
    for seed in range(6):
        _assert_replay_matches_reference(CORPUS_RECIPES[name](seed).script)


def test_replay_matches_reference_on_handle_scripts():
    for seed in (0, 4):
        _assert_replay_matches_reference(handle_instance(seed).script)


def test_replay_holds_a_complex_until_its_last_reference():
    """Step 1 is read at steps 2 and 8, step 0 at steps 2 and 9, the last."""
    left = boundary_simplex(5).relabel({i: i + 10 for i in range(6)})
    steps = [
        {"op": "boundary_simplex", "n": 5},
        {"op": "complex", "facets": [list(f) for f in left.facets]},
        {"op": "connected_sum", "left": 0, "right": 1,
         "pairs": [[i, i + 10] for i in range(5)]},
    ]
    for i in range(3, 8):
        steps.append({"op": "facet_subdivision", "operand": i - 1,
                      "facet": list(boundary_simplex(5).facets[i - 2])})
    steps.append({"op": "facet_subdivision", "operand": 1, "facet": list(left.facets[0])})
    steps.append({"op": "connected_sum", "left": 8, "right": 0,
                  "pairs": [[a, b] for a, b in zip(left.facets[-1], range(5))]})
    doc = {"version": 1, "steps": steps}
    _assert_replay_matches_reference(doc)
    result = replay(doc)
    assert result.ledger_ok
    assert [row.checked for row in result.ledger] == [False, False] + [True] * 8


_IDENTIFICATIONS = ("connected_sum", "handle_addition", "vertex_fold", "edge_fold")


@settings(max_examples=40, deadline=None)
@given(scripts_of_every_family)
def test_identifications_match_the_plain_kernel(doc):
    """Every sum, handle and fold step is the plain relabel-dedupe-drop
    identification of its operands."""
    complexes, _ = reference_replay(doc)
    for i, step in enumerate(doc["steps"]):
        if step["op"] not in _IDENTIFICATIONS:
            continue
        mapping = dict(step["pairs"])
        if step["op"] == "connected_sum":
            union = (complexes[step["left"]].maximal_faces
                     | complexes[step["right"]].maximal_faces)
            expected = reference_identify(Complex(union), mapping, mapping.keys())
        else:
            expected = reference_identify(complexes[step["operand"]], mapping,
                                          step["source_facet"])
        assert complexes[i] == expected, (i, step["op"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**40))
def test_trusted_complexes_match_init_on_random_scripts(family, start):
    with trusted_against_init() as callers:
        replay(random_script(_family_seed(family, start)))
    assert {"_identify", "boundary_simplex", "_fresh_boundary", "from_facets"} <= callers


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**40), st.lists(st.sampled_from(
    [("sum", ()), ("sum", (0,)), ("sum", (0, 1)), ("sum", (2,)), ("pick", ()), ("subdivide", ())]),
    min_size=1, max_size=12))
def test_newest_facet_matches_a_scan(seed, moves):
    b = ScriptBuilder(SplitMix64(seed), 5)
    for move, fixed in moves:
        if move == "sum":
            b.sum(fixed=fixed)
        elif move == "pick":
            b.sum(b.pick())
        else:
            b.subdivide(b.pick())
        for at in ((), (0,), (1,), (0, 1), (0, 2)):
            assert b._newest(at) == newest_facet(b.current, at), (move, fixed, at)
