import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psf

from psf import Complex, join
from psf.build import boundary_simplex, one_vertex_suspension
from psf.buildscript import dump_script, random_script
from psf.cli import main
from psf.corpus import pinched_complex, vertex_folded_instance, edge_folded_instance
from psf.decompose import decompose
from psf.fileio import ParseError, format_complex, parse_complex
from reference import reference_parse_complex


def write_complex(tmp_path, name, k):
    path = tmp_path / name
    path.write_text(format_complex(k))
    return str(path)


def test_facet_file_round_trip():
    k = vertex_folded_instance(3).complex
    assert parse_complex(format_complex(k)) == k
    text = format_complex(k)
    assert format_complex(parse_complex(text)) == text


def test_parse_errors_positioned():
    from psf.fileio import ParseError

    with pytest.raises(ParseError) as err:
        parse_complex("0 1 2\n0 oops 3\n")
    assert err.value.line == 2
    assert err.value.column == 3


def test_parse_error_column_of_repeated_token():
    from psf.fileio import ParseError

    with pytest.raises(ParseError) as err:
        parse_complex("1 11 2 1\n")
    assert (err.value.line, err.value.column) == (1, 8)
    assert "line 1, column 8: repeated vertex 1" in str(err.value)


@pytest.mark.parametrize("text, position, message", [
    ("0 1 2\x0c0 x 3\n", (1, 9), "not an integer: 'x'"),
    ("0 1\u00a02\n", (1, 3), "not an integer: '1\\xa02'"),
    ("0 1 2\n3 4\u20285\n", (2, 3), "not an integer: '4\\u20285'"),
])
def test_labels_are_separated_only_by_ascii_blanks(text, position, message):
    from psf.fileio import ParseError

    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert (err.value.line, err.value.column) == position
    assert str(err.value) == f"line {position[0]}, column {position[1]}: {message}"


def test_crlf_file_parses(tmp_path, capsys):
    text = format_complex(boundary_simplex(3)).replace("\n", "\r\n")
    assert parse_complex(text) == boundary_simplex(3)
    assert parse_complex("0 1\t2\x0b3\x0c\r\n") == Complex([[0, 1, 2, 3]])
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "normal pseudomanifold\n"
    # a lone carriage return is a blank, not a line end, in the CLI too
    path.write_bytes(b"0 1 2\r0 x 3\n")
    assert main(["check", str(path)]) == 2
    assert "line 1, column 9: not an integer: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("token, message", [
    ("oops", "not an integer: 'oops'"),
    ("-3", "negative vertex label -3"),
    ("-0", "negative vertex label -0"),
    ("1_0", "not an integer: '1_0'"),
    ("+0", "not an integer: '+0'"),
    ("\u0663", "not an integer: '\u0663'"),
    ("\uff13", "not an integer: '\uff13'"),
])
def test_labels_are_ascii_decimal_digits(tmp_path, capsys, token, message):
    from psf.fileio import ParseError

    text = f"0 1 2\n3 {token} 4\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert str(err.value) == f"line 2, column 3: {message}"
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["info", str(path)]) == 2
    assert main(["check", str(path)]) == 2
    assert f"line 2, column 3: {message}" in capsys.readouterr().err


def test_facet_lengths_differ_at_the_first_odd_facet(tmp_path, capsys):
    text = "0 1 2\n0 1 3\n\n# a comment\n  0 1 2 3  # odd\n0 2 3\n1 2\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert (err.value.line, err.value.column) == (5, 1)
    assert str(err.value) == "line 5, column 1: facet lengths differ: [2, 3, 4]"
    path = tmp_path / "mixed.txt"
    path.write_text("0 1 2\n0 1 2 3\n")
    assert main(["info", str(path)]) == 2
    assert "line 2, column 1: facet lengths differ: [3, 4]" in capsys.readouterr().err


_LONG_RUN = "7" * (max(sys.get_int_max_str_digits(), 4300) + 1)
_BLANKS = " \t\v\f\r"
# Characters the reference refuses that Unicode-aware readers might take:
# non-ASCII blanks and digits, signs, underscores and comment marks.
_ODD = ["\n", "#", "-", "+", "_", "\xa0", "\u2028", "\x1c", "\u0663", "\uff13"]
_label = st.integers(0, 30).map(str)
# A label with odd characters around it, or the too-long run.
_odd_label = st.tuples(st.sampled_from(["", *_ODD, _LONG_RUN]), _label,
                       st.sampled_from(["", *_ODD])).map("".join)
_blanks = st.text(st.sampled_from(_BLANKS), min_size=1, max_size=2)


def _facet_text(width, token, unique):
    """Up to five lines of ``width`` or ``width + 1`` tokens."""
    line = st.lists(token, min_size=width, max_size=width + 1, unique=unique).flatmap(
        lambda tokens: st.lists(_blanks, min_size=len(tokens), max_size=len(tokens)).map(
            lambda blanks: "".join(map(str.__add__, blanks, tokens))))
    return st.lists(line, min_size=1, max_size=5).map("\n".join)


_texts = st.one_of(
    st.text(st.sampled_from([*"0123456789", *_BLANKS, *_ODD]), max_size=40),
    st.integers(1, 4).flatmap(lambda w: _facet_text(w, _label, unique=True)),
    st.integers(1, 4).flatmap(lambda w: _facet_text(w, st.one_of(_label, _odd_label), unique=False)),
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=150, deadline=None)
@given(_texts)
@example(f"0 1\n1 {_LONG_RUN} 2\n")
@example("0 1 2\n1 2\n# c\n3 4 5 6")
def test_parser_matches_the_token_scan(text):
    got = _parse_outcome(parse_complex, text)
    want = _parse_outcome(reference_parse_complex, text)
    if isinstance(want, tuple) and "facet lengths differ" in want[1]:
        # reported at the first facet whose length differs from the first's
        lengths = [len(line.split("#", 1)[0].split()) for line in text.split("\n")]
        first = next(n for n in lengths if n)
        line = next(i for i, n in enumerate(lengths, start=1) if n not in (0, first))
        want = want[0], want[1].replace("line 1,", f"line {line},", 1), line, 1
    assert got == want
    if isinstance(want, Complex):
        assert got.facets == want.facets


def test_comments_and_blank_lines():
    text = "# a sphere\n\n0 1 2  # facet one\n0 1 3\n0 2 3\n1 2 3\n"
    assert parse_complex(text) == boundary_simplex(3)


def test_info_command(tmp_path, capsys):
    path = write_complex(tmp_path, "d5.txt", boundary_simplex(5))
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "f = 1 6 15 20 15 6" in out
    assert "g2 = 0" in out
    assert "singular: none" in out


def test_info_fold_instance(tmp_path, capsys):
    record = vertex_folded_instance(7)
    path = write_complex(tmp_path, "fold.txt", record.complex)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "g2 = 10" in out
    assert f"singular: {record.tracked}" in out


def test_info_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 x\n")
    assert main(["info", str(path)]) == 2


# The longest decimal string int() converts; 0 where there is no limit.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not _INT_DIGITS,
                                     reason="this interpreter converts integers of any length")


@needs_int_limit
def test_label_beyond_the_int_string_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.facets"
    path.write_text("0 1 2\n3 4 " + "7" * (_INT_DIGITS + 1) + "\n")
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 5: vertex label too long (")


@needs_int_limit
def test_build_integer_beyond_the_int_string_limit_is_a_parse_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text('{"version": 1, "steps": [{"op": "boundary_simplex", "n": 1%s}]}'
                      % ("0" * _INT_DIGITS))
    assert main(["build", str(script)]) == 2
    assert "parse error: invalid JSON:" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    good = write_complex(tmp_path, "good.txt", boundary_simplex(5))
    assert main(["check", good]) == 0
    bad = write_complex(tmp_path, "bad.txt", pinched_complex())
    assert main(["check", bad]) == 1
    out = capsys.readouterr().out
    assert "disconnected_links" in out


def test_check_strict_unknown_verdict(tmp_path):
    j = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    susp = one_vertex_suspension(j, 0)
    path = write_complex(tmp_path, "susp.txt", susp)
    assert main(["check", path]) == 0
    assert main(["check", path, "--strict"]) == 3


def test_check_strict_names_the_singular_vertices(tmp_path, capsys):
    path = write_complex(tmp_path, "fold.txt", vertex_folded_instance(3).complex)
    assert main(["check", path, "--strict"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "singular: 0"


def test_unknown_verdicts_at_every_vertex(tmp_path, capsys):
    # every vertex link of this 4-sphere has g2 = 1, so none is certified
    triangle = boundary_simplex(2)
    k = join(join(triangle, triangle.relabel({0: 3, 1: 4, 2: 5})), Complex([[6], [7]]))
    path = write_complex(tmp_path, "joins.txt", k)
    assert main(["check", path, "--strict"]) == 3
    assert main(["info", path]) == 0
    assert "unknown: 0 1 2 3 4 5 6 7" in capsys.readouterr().out.splitlines()


def test_decompose_refuses_a_complex_that_is_not_normal(tmp_path, capsys):
    path = write_complex(tmp_path, "pinched.txt", pinched_complex())
    assert main(["decompose", path, "--vertex", "0"]) == 1
    assert capsys.readouterr().out.startswith(
        "decomposition failed: input is not a normal pseudomanifold")


def test_decompose_at_an_absent_vertex_is_a_generic_error(tmp_path, capsys):
    path = write_complex(tmp_path, "sphere.txt", boundary_simplex(5))
    assert main(["decompose", path, "--vertex", "999"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: vertex 999 not in complex\n")


def test_build_command(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(dump_script(random_script(5)))
    out_file = tmp_path / "out.txt"
    assert main(["build", str(script), "-o", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "ok" in printed
    parse_complex(out_file.read_text())


def test_build_rejects_bad_script(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"version": 1, "steps": [{"op": "nope"}]}))
    assert main(["build", str(script)]) == 2


def test_build_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text("[" * 100000)
    assert main(["build", str(script)]) == 2
    assert "parse error: invalid JSON:" in capsys.readouterr().err


_B5 = {"op": "boundary_simplex", "n": 5}
_B5_FACETS = [list(f) for f in boundary_simplex(5).facets]
_BAD_FIELD = "parse error: bad field"


@pytest.mark.parametrize("steps, message", [
    ([{"op": "boundary_simplex", "n": "x"}], _BAD_FIELD),
    ([{"op": "complex", "facets": 5}], _BAD_FIELD),
    ([_B5, {"op": "facet_subdivision", "operand": 0, "facet": [0, 1, 2, 3, 4],
            "new_vertex": "q"}], _BAD_FIELD),
    ([{"op": "boundary_simplex", "n": 5.9}], _BAD_FIELD),
    ([{"op": "boundary_simplex", "n": True}], _BAD_FIELD),
    ([{"op": "boundary_simplex", "n": "5"}], _BAD_FIELD),
    ([_B5, {"op": "one_vertex_suspension", "operand": 0, "vertex": 0, "apex": 1.5}],
     _BAD_FIELD),
    ([{"op": "complex", "facets": [[0, 1, 2.0], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}],
     _BAD_FIELD),
    ([{"op": "complex", "facets": [[0, 1, True], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}],
     _BAD_FIELD),
    ([_B5, {"op": "facet_subdivision", "operand": 0, "facet": [0, 1, 2, 3, "4"]}],
     _BAD_FIELD),
    ([_B5, {"op": "complex", "facets": _B5_FACETS},
      {"op": "connected_sum", "left": 0, "right": 1,
       "pairs": [[0, 0.0], [1, 1], [2, 2], [3, 3], [4, 4]]}], _BAD_FIELD),
    ([_B5, _B5, {"op": "cone", "operand": True, "vertex": 9}], None),
    ([{"op": "complex", "facets": [[0, 1], [2, 3, 4]]}], _BAD_FIELD),
    ([{"op": "complex", "facets": []}], _BAD_FIELD),
    ([{"op": "complex", "facets": [[0, 0, 1]]}], _BAD_FIELD),
    ([{"op": "complex", "facets": [[0, -1, 2]]}], _BAD_FIELD),
], ids=["non-integer-n", "non-list-facets", "non-integer-new-vertex", "float-n", "bool-n",
        "string-n", "float-apex", "float-label", "bool-label", "string-label", "float-pair",
        "bool-reference", "mixed-facet-lengths", "no-facets", "repeated-label",
        "negative-label"])
def test_build_malformed_step_exit_code(tmp_path, capsys, steps, message):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"version": 1, "steps": steps}))
    assert main(["build", str(script)]) == 2
    if message is not None:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("step, label", [
    ({"op": "facet_subdivision", "operand": 0, "facet": [0, 1, 2, 3, 4], "new_vertex": -1},
     "(-1, 1, 2, 3, 4)"),
    ({"op": "cone", "operand": 0, "vertex": -1}, "(-1, 0, 1, 2, 3, 4)"),
    ({"op": "one_vertex_suspension", "operand": 0, "vertex": 0, "apex": -3},
     "(-3, 0, 1, 2, 3, 4)"),
], ids=["facet_subdivision", "cone", "one_vertex_suspension"])
def test_build_negative_new_label_exit_code(tmp_path, capsys, step, label):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"version": 1, "steps": [_B5, step]}))
    assert main(["build", str(script)]) == 4
    out = capsys.readouterr().out
    assert out == f"build failed: vertex labels must be non-negative, got {label}\n"


def test_build_inadmissible_fold_exit_code(tmp_path):
    b5 = boundary_simplex(5)
    f1, f2 = b5.facets[0], b5.facets[1]
    doc = {
        "version": 1,
        "steps": [
            {"op": "boundary_simplex", "n": 5},
            {
                "op": "vertex_fold",
                "operand": 0,
                "source_facet": list(f1),
                "target_facet": list(f2),
                "pairs": [[a, b] for a, b in zip(f1, f2)],
            },
        ],
    }
    script = tmp_path / "script.json"
    script.write_text(json.dumps(doc))
    assert main(["build", str(script)]) == 4


def test_build_script_replay_byte_identical(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(dump_script(random_script(11)))
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["build", str(script), "-o", str(out1)]) == 0
    assert main(["build", str(script), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_decompose_command(tmp_path, capsys):
    record = vertex_folded_instance(9)
    path = write_complex(tmp_path, "fold.txt", record.complex)
    tree_file = tmp_path / "tree.json"
    code = main([
        "decompose", path, "--vertex", str(record.tracked),
        "--mode", "one-singularity", "-o", str(tree_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "vertex_folds=1" in out
    doc = json.loads(tree_file.read_text())
    assert doc["version"] == 1
    tree = decompose(record.complex, record.tracked, mode="one-singularity")
    assert tree_file.read_bytes() == (json.dumps(tree.to_dict(), indent=2, sort_keys=True)
                                      + "\n").encode()


def test_decompose_not_optimal_exit(tmp_path, capsys):
    j = join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]]))
    susp = one_vertex_suspension(j, 0)
    path = write_complex(tmp_path, "susp.txt", susp)
    apex = max(susp.vertices)
    assert main(["decompose", path, "--vertex", str(apex), "--mode", "one-singularity"]) == 5
    # the four numbers say why: g3 is not optimal at the apex
    assert capsys.readouterr().out == (
        "not optimal: complex is not g2- and g3-optimal at vertex 6: "
        "g2(K) = 1, g2(lk 6) = 1, g3(K) = 0, g3(lk 6) = -1\n")


def test_decompose_edge_mode_cli(tmp_path, capsys):
    record = edge_folded_instance(10)
    path = write_complex(tmp_path, "edge.txt", record.complex)
    assert main(["decompose", path, "--vertex", str(record.tracked)]) == 0
    out = capsys.readouterr().out
    assert "edge_folds=1" in out
    assert "6*1 + 10*0" in out


def test_decompose_irreducible_exit(tmp_path, monkeypatch, capsys):
    import psf.cli as cli
    from psf.decompose import DecompositionTree, TreeNode

    k = boundary_simplex(5)
    path = write_complex(tmp_path, "d5.txt", k)
    fake = DecompositionTree([TreeNode("leaf", leaf_kind="irreducible_base", facets=k.facets)], 0)
    monkeypatch.setattr(cli, "decompose", lambda *a, **kw: fake)
    assert main(["decompose", path, "--vertex", "0"]) == 6


def test_verify_identities_command(capsys):
    assert main(["verify-identities", "--seeds", "6"]) == 0
    out = capsys.readouterr().out
    assert "all identities exact" in out


def test_only_verify_identities_imports_the_identity_suite():
    env = dict(os.environ, PYTHONPATH=str(Path(psf.__file__).parents[1]))
    code = "import sys, psf.cli; print('psf.identities' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert run.stdout == "False\n"


@pytest.mark.parametrize("option, value", [
    ("--seeds", "0"), ("--seeds", "-3"), ("--ops", "0"), ("--ops", "-5"),
], ids=["0", "-3", "ops-0", "ops-minus-5"])
def test_verify_identities_refuses_an_empty_sweep(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--seeds", "1", option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "all identities exact" not in out
    assert option in err


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # One parser serves every main() call, so no option of one call may
    # leak into the next: each output must equal a fresh process's.
    susp = write_complex(tmp_path, "susp.txt", one_vertex_suspension(
        join(boundary_simplex(2), Complex([[3, 4], [4, 5], [3, 5]])), 0))
    fold = vertex_folded_instance(9)
    fold_path = write_complex(tmp_path, "fold.txt", fold.complex)
    edge = edge_folded_instance(10)
    edge_path = write_complex(tmp_path, "edge.txt", edge.complex)
    script = tmp_path / "script.json"
    script.write_text(dump_script(random_script(5)))
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 x\n")
    calls = [
        ["check", susp, "--strict"],
        ["check", susp],
        ["info", fold_path],
        ["decompose", fold_path, "--vertex", str(fold.tracked), "--mode", "one-singularity",
         "-o", str(tmp_path / "tree.json")],
        ["decompose", edge_path, "--vertex", str(edge.tracked)],
        ["build", str(script), "-o", str(tmp_path / "out.txt")],
        ["build", str(script)],
        ["info", str(bad)],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=str(Path(psf.__file__).parents[1]))
    fresh = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "psf.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=120)
        fresh.append((run.returncode, run.stdout, run.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [3, 0, 0, 0, 0, 0, 0, 2]


@pytest.mark.parametrize("command", [["info"], ["check"], ["build"], ["decompose", "--vertex", "0"]])
@pytest.mark.parametrize("kind", ["directory", "not utf-8", "absent"])
def test_unreadable_input_exit_code(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"\xff\xfe0 1 2\n")
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot read {path}")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["build", "decompose"])
@pytest.mark.parametrize("kind", ["directory", "missing parent"])
def test_unwritable_output_exit_code(tmp_path, capsys, command, kind):
    if command == "build":
        script = tmp_path / "script.json"
        script.write_text(dump_script(random_script(5)))
        argv = ["build", str(script)]
    else:
        record = edge_folded_instance(10)
        argv = ["decompose", write_complex(tmp_path, "edge.txt", record.complex),
                "--vertex", str(record.tracked)]
    out = tmp_path / "out"
    if kind == "directory":
        out.mkdir()
    else:
        out = out / "tree"
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
