import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psf import Complex, buildscript
from psf.build import SplitMix64, boundary_simplex, facet_subdivision, one_vertex_suspension
from psf.buildscript import (
    ScriptBuilder,
    ScriptError,
    dump_script,
    load_script,
    random_script,
    replay,
    validate_script,
)
from psf.complexes import ComplexError
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


def _shared_operand_script():
    """A dimension-3 subdivision, an unchecked suspension up to dimension
    4, then checked steps that each read one operand twice: steps 4 and 5
    subdivide step 3, and steps 7 and 9 glue a summand onto step 5, the
    left operand of both sums."""
    k1 = facet_subdivision(boundary_simplex(4), (0, 1, 2, 3), 5)
    k2 = one_vertex_suspension(k1, 0, 6)
    k3 = facet_subdivision(k2, k2.facets[0], 7)
    k5 = facet_subdivision(k3, k3.facets[-1], 8)

    def leaf(offset):
        return {"op": "complex", "facets": [[v + offset for v in f]
                                            for f in boundary_simplex(5).facets]}

    steps = [
        {"op": "boundary_simplex", "n": 4},
        {"op": "facet_subdivision", "operand": 0, "facet": [0, 1, 2, 3], "new_vertex": 5},
        {"op": "one_vertex_suspension", "operand": 1, "vertex": 0, "apex": 6},
        {"op": "facet_subdivision", "operand": 2, "facet": list(k2.facets[0]), "new_vertex": 7},
        {"op": "facet_subdivision", "operand": 3, "facet": list(k3.facets[0]), "new_vertex": 8},
        {"op": "facet_subdivision", "operand": 3, "facet": list(k3.facets[-1]), "new_vertex": 8},
        leaf(20),
        {"op": "connected_sum", "left": 5, "right": 6,
         "pairs": [[a, b] for a, b in zip(k5.facets[0], range(20, 25))]},
        leaf(30),
        {"op": "connected_sum", "left": 5, "right": 8,
         "pairs": [[a, b] for a, b in zip(k5.facets[1], range(30, 35))]},
    ]
    return {"version": 1, "steps": steps}


def test_ledger_matches_reference_when_an_operand_is_read_twice():
    doc = _shared_operand_script()
    _assert_replay_matches_reference(doc)
    ledger = replay(doc).ledger
    assert [row.checked for row in ledger] == [False, True, False] + [True] * 3 + [
        False, True, False, True]
    assert ledger[1].g3 is not None and ledger[0].g2 == 0


def test_debug_verify_catches_a_corrupted_face_table(monkeypatch):
    """A face table that lost one edge gives a wrong g2 row; under
    ``PSF_DEBUG_VERIFY=1`` the full recount refuses it."""
    count = buildscript._count_faces

    def corrupted(facets):
        edges, triangles = count(facets)
        edges.popitem()
        return edges, triangles

    monkeypatch.setattr(buildscript, "_count_faces", corrupted)
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    assert replay(minimal_script()).ledger[0].g2 == -1
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    with pytest.raises(ComplexError, match="face tables give"):
        replay(minimal_script())


def test_bad_labels_are_named_as_before():
    steps = [{"op": "boundary_simplex", "n": 5},
             {"op": "facet_subdivision", "operand": 0, "facet": [0, 1, True, 3.0, 4]}]
    with pytest.raises(ScriptError, match=r"bad field 'facet' .*expected an integer, got True$"):
        replay({"version": 1, "steps": steps})


def _assert_dumps_as_json(doc):
    assert dump_script(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_documents)
def test_dump_script_writes_what_json_writes(doc):
    _assert_dumps_as_json(doc)


def test_dump_script_writes_what_json_writes_on_edge_cases():
    _assert_dumps_as_json({"": [], "a": {}, "\u00e9\n\"\\\x00\ud800": [[], [{}]],
                           "floats": [0.0, -0.0, 1e300, 2.5e-8, float("nan"), float("inf"),
                                      float("-inf")],
                           "ints": [True, False, None, 0, -7, 10**30]})
    for doc in ([], {}, "x", 1, None, [[1, 2], [3]]):
        _assert_dumps_as_json(doc)


@settings(max_examples=20, deadline=None)
@given(scripts_of_every_family)
def test_dump_script_writes_random_scripts_as_json(doc):
    _assert_dumps_as_json(doc)


def test_dump_script_writes_corpus_scripts_as_json():
    for name, make in sorted(CORPUS_RECIPES.items()):
        for seed in range(3):
            _assert_dumps_as_json(make(seed).script)
    _assert_dumps_as_json(handle_instance(0).script)
