"""Build scripts: a small JSON format that pins every construction step.

A script is a list of steps; each step either creates a complex
(simplex boundary, stacked sphere, literal facet list) or applies an
operation to earlier steps, with all facets and bijections written out.
Replay is therefore byte-deterministic.  The replay also keeps a
g-ledger: for every operation with an exact g-law the observed change
of (g2, g3) is compared with the predicted one.

One forward loop, ``_run_script``, runs every script: it holds a
complex only until the last step that references it.  ``replay`` hands
it the ledger step, and ``decompose.rebuild`` runs a decomposition
tree's script through it with no ledger.  The ledger reads each
operand's (g2, g3) from its earlier row.  A result's own (g2, g3) comes
from its edge and triangle counts, read off two multiplicity tables
(face -> number of facets holding it) that live exactly as long as the
complex.  A checked operation carries the tables of its first operand
over to its result through the facets that leave and arrive; leaves and
the unchecked operations count theirs from scratch.
``PSF_DEBUG_VERIFY=1`` recounts every row in full.

``dump_script`` writes a document exactly as ``json.dumps(doc,
indent=2, sort_keys=True)`` does, plus a newline, without the pure
Python encoder that ``indent`` selects.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from .complexes import Complex, ComplexError, Simplex, _debug, _faces, _integer
from .build import (SplitMix64, _glue_fresh_boundary, boundary_simplex, cone, connected_sum,
                    edge_fold, facet_subdivision, fold_deltas, handle_addition,
                    one_vertex_suspension, random_admissible, stacked_sphere, vertex_fold)
from .enumeration import g2 as _g2, g3 as _g3, g_from_counts

SCRIPT_VERSION = 1

LEAF_OPS = ("boundary_simplex", "stacked_sphere", "complex")
# The operations with an exact g-law, which the ledger checks.
_CHECKED_OPS = ("connected_sum", "handle_addition", "vertex_fold", "edge_fold", "facet_subdivision")
DERIVED_OPS = _CHECKED_OPS + ("one_vertex_suspension", "cone")
REFERENCE_KEYS = ("operand", "left", "right")


class ScriptError(ComplexError):
    """Malformed script document (schema level, not admissibility);
    ``step`` is the index of a step whose fields ``_run_script`` refused."""

    step: Optional[int] = None


@dataclass(frozen=True)
class LedgerRow:
    step: int
    op: str
    g2: Optional[int]
    g3: Optional[int]
    delta_g2: Optional[int] = None
    delta_g3: Optional[int] = None
    expected_g2: Optional[int] = None
    expected_g3: Optional[int] = None

    @property
    def checked(self) -> bool:
        return self.expected_g2 is not None

    @property
    def ok(self) -> bool:
        return not self.checked or (self.delta_g2 == self.expected_g2 and (
            self.expected_g3 is None or self.delta_g3 == self.expected_g3))


@dataclass
class ReplayResult:
    final: Complex
    ledger: list[LedgerRow]

    @property
    def ledger_ok(self) -> bool:
        return all(row.ok for row in self.ledger)


def _g2g3(k: Complex) -> tuple[Optional[int], Optional[int]]:
    return (_g2(k) if k.dim >= 2 else None), (_g3(k) if k.dim >= 3 else None)


def _need(step: dict, key: str):
    if key not in step:
        raise ScriptError(f"step is missing field {key!r}: {step}")
    return step[key]


def _field(step: dict, key: str, convert, optional: bool = False):
    """``convert`` applied to a step field; a missing or malformed field
    is a ScriptError.  An optional field may be absent or null."""
    if optional and step.get(key) is None:
        return None
    value = _need(step, key)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScriptError(f"bad field {key!r} in step {step}: {exc}") from exc


def _labels(value) -> list[int]:
    """``value`` as a list of JSON integers; ``_integer`` names the first
    value that is not one."""
    labels = list(value)
    if set(map(type, labels)) <= {int}:
        return labels
    return [_integer(v) for v in labels]


def _pair_map(value) -> dict[int, int]:
    return {_integer(a): _integer(b) for a, b in value}


def validate_script(doc: dict) -> list[dict]:
    if not isinstance(doc, dict):
        raise ScriptError("script document must be a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != SCRIPT_VERSION:
        raise ScriptError(f"script version must be {SCRIPT_VERSION}")
    steps = doc.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ScriptError("script needs a non-empty steps list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ScriptError(f"step {i} is not an object")
        op = step.get("op")
        if op not in LEAF_OPS + DERIVED_OPS:
            raise ScriptError(f"step {i} has unknown op {op!r}")
        for key in REFERENCE_KEYS:
            if key in step:
                ref = step[key]
                if type(ref) is not int or not (0 <= ref < i):
                    raise ScriptError(f"step {i} references invalid step {ref!r}")
    return steps


def _construct(step: dict, operand) -> Complex:
    """The complex ``step`` makes; ``operand(key)`` is the complex that its
    ``key`` field ("operand", "left" or "right") refers to."""
    op = step["op"]
    if op == "boundary_simplex":
        return boundary_simplex(_field(step, "n", _integer))
    if op == "stacked_sphere":
        return stacked_sphere(*(_field(step, key, _integer) for key in ("d", "k", "seed")))
    if op == "complex":
        return _field(step, "facets", Complex.from_facets)
    if op == "connected_sum":
        return connected_sum(operand("left"), operand("right"), _field(step, "pairs", _pair_map))
    if op in ("handle_addition", "vertex_fold", "edge_fold"):
        fn = {"handle_addition": handle_addition, "vertex_fold": vertex_fold, "edge_fold": edge_fold}[op]
        return fn(operand("operand"), _field(step, "source_facet", _labels),
                  _field(step, "target_facet", _labels), _field(step, "pairs", _pair_map))
    if op == "facet_subdivision":
        return facet_subdivision(operand("operand"), _field(step, "facet", _labels),
                                 _field(step, "new_vertex", _integer, True))
    if op == "one_vertex_suspension":
        return one_vertex_suspension(operand("operand"), _field(step, "vertex", _integer),
                                     _field(step, "apex", _integer, True))
    if op == "cone":
        base = operand("operand")
        return cone(_field(step, "vertex", _integer), base)
    raise ScriptError(f"unhandled op {op!r}")  # pragma: no cover - validate_script rejects it


# A complex's edge and triangle multiplicity tables: face -> number of
# maximal faces holding it.
_Tables = tuple[Counter, Counter]


def _count_faces(facets) -> _Tables:
    return Counter(_faces(facets, 2)), Counter(_faces(facets, 3))


def _carry(tables: _Tables, gone, arrived) -> _Tables:
    """``tables`` changed in place from one facet set to another: the
    faces of the ``gone`` facets are taken out, those of the ``arrived``
    ones put in."""
    for table, size in zip(tables, (2, 3)):
        for face in _faces(gone, size):
            n = table[face] - 1
            if n:
                table[face] = n
            else:
                del table[face]
        table.update(_faces(arrived, size))
    return tables


def _operand_keys(op: str) -> tuple[str, ...]:
    return ("left", "right") if op == "connected_sum" else ("operand",)


def _face_tables(i: int, step: dict, result: Complex, live: dict, last_use: dict) -> _Tables:
    """The face tables of step i's result.

    A checked op starts from the tables of its first operand X (the
    left one of a connected sum, whose facets ``_identify`` keeps but
    for the merged one), taken over in place when this is X's last use
    and copied otherwise, and carries them through the symmetric
    difference of X's and the result's facets.  This is exact on the
    result's own facets, whatever the op did.  Leaves and unchecked ops
    count from scratch."""
    if step["op"] not in _CHECKED_OPS:
        return _count_faces(result.maximal_faces)
    base = step[_operand_keys(step["op"])[0]]
    k, tables = live[base]
    if last_use[base] != i:
        tables = (tables[0].copy(), tables[1].copy())
    return _carry(tables, k.maximal_faces - result.maximal_faces,
                  result.maximal_faces - k.maximal_faces)


def _run_script(doc: dict, hold=None) -> Complex:
    """The complex that the last step of the script ``doc`` makes, each
    result held until the last step that references it.  ``hold(i, step,
    result, live, last_use)`` sees each result while ``live`` (index ->
    (complex, held value)) still holds its operands, and returns what to
    hold next to it."""
    steps = validate_script(doc)
    last_use = {step[key]: i for i, step in enumerate(steps)
                for key in REFERENCE_KEYS if key in step}
    live: dict[int, tuple] = {}
    for i, step in enumerate(steps):
        try:
            result = _construct(step, lambda key: live[_need(step, key)][0])
        except ScriptError as exc:
            exc.step = i
            raise
        held = None if hold is None else hold(i, step, result, live, last_use)
        for key in REFERENCE_KEYS:
            if last_use.get(step.get(key)) == i:
                live.pop(step[key], None)
        if i in last_use:
            live[i] = (result, held)
    return result


def replay(doc: dict) -> ReplayResult:
    """Execute a validated script and build its g-ledger, holding each
    step's complex and face tables until the last step that references
    it.  Under ``PSF_DEBUG_VERIFY=1`` every row is recounted from the
    complex's own faces, and a difference raises ComplexError."""
    debug = _debug()
    ledger: list[LedgerRow] = []

    def ledger_step(i: int, step: dict, result: Complex, live: dict, last_use: dict) -> _Tables:
        tables = _face_tables(i, step, result, live, last_use)
        row = _ledger_row(i, step, result, tables, ledger)
        if debug and (row.g2, row.g3) != _g2g3(result):
            raise ComplexError(f"step {i}: face tables give (g2, g3) = {(row.g2, row.g3)}, "
                               f"a full count {_g2g3(result)}")
        ledger.append(row)
        return tables

    return ReplayResult(_run_script(doc, ledger_step), ledger)


def _ledger_row(i: int, step: dict, result: Complex, tables: _Tables,
                ledger: list[LedgerRow]) -> LedgerRow:
    """Step i's row, its (g2, g3) from the result's face tables; a checked
    op with a g2 reads its operands' (g2, g3) off their rows.  Every
    checked op keeps the dimension, so its operands have a g2 (g3)
    whenever its result does."""
    op = step["op"]
    cur2, cur3 = g_from_counts(result.dim, len(result.vertices), *map(len, tables))
    if op not in _CHECKED_OPS or cur2 is None:
        return LedgerRow(i, op, cur2, cur3)
    operands = [ledger[step[key]] for key in _operand_keys(op)]
    e2, e3 = (0, 0) if op in ("connected_sum", "facet_subdivision") else fold_deltas(op, result.dim)
    return LedgerRow(
        i, op, cur2, cur3,
        delta_g2=cur2 - sum(row.g2 for row in operands),
        delta_g3=None if cur3 is None else cur3 - sum(row.g3 for row in operands),
        expected_g2=e2,
        expected_g3=None if cur3 is None else e3,
    )


def load_script(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ScriptError(f"invalid JSON: {exc}") from exc
    validate_script(doc)
    return doc


def dump_script(doc: dict) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
    writes it, byte for byte."""
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` in the ``json.dumps(indent=2, sort_keys=True)`` layout;
    ``newline`` is a line break followed by the current indentation."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (int, float)) or value is None:
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- seeded building -------------------------------------------------------

# Summands in the arm grown before a fold: the shortest arms whose far
# ends hold admissible pairs (and, for handles, usually a free pair).
VERTEX_ARM = 10
EDGE_ARM = 9
HANDLE_ARM = 11


def _pairs(mapping: dict[int, int]) -> list[list[int]]:
    return [[a, b] for a, b in sorted(mapping.items())]


class ScriptBuilder:
    """Grows one complex by seeded moves and records each move as script steps.

    ``current`` is the complex so far and ``script`` the build script
    that replays to it: every move writes its step and builds the new
    complex from that step, as ``replay`` does.  All draws come from
    ``rng``, which a caller may swap to continue with another stream.
    """

    def __init__(self, rng: SplitMix64, n: int):
        self.rng = rng
        self.steps: list[dict] = [{"op": "boundary_simplex", "n": n}]
        self.current = _construct(self.steps[0], None)
        # (src, apex) when the last move glued a summand at src, leaving
        # its apex as the newest label
        self._glued: Optional[tuple[Simplex, int]] = None

    @property
    def script(self) -> dict:
        return {"version": SCRIPT_VERSION, "steps": self.steps}

    def _add(self, step: dict, right: Optional[Complex] = None) -> None:
        """Append ``step``, whose other operand is the current complex, and
        make its result current."""
        left = self.current
        self.current = _construct(step, lambda key: right if key == "right" else left)
        self.steps.append(step)
        self._glued = None

    def pick(self, fixed: tuple[int, ...] = (), avoid: Optional[int] = None) -> Simplex:
        """A seeded facet through the ``fixed`` vertices that misses ``avoid``."""
        facets = [f for f in self.current.facets_through(fixed) if avoid not in f]
        return facets[self.rng.randrange(len(facets))]

    def _newest(self, fixed: tuple[int, ...] = ()) -> Simplex:
        """The facet through ``fixed`` with the newest labels: the largest
        when each facet is read from its largest label down.

        Right after a sum at ``src`` its apex is the largest label, and
        the facets through it are src - x + apex; when ``fixed`` lies
        inside ``src`` the answer is among those with x off ``fixed``.
        Otherwise one pass over the maximal faces finds it, so a fresh
        complex builds no facet index."""
        if self._glued is not None and set(fixed) < set(self._glued[0]):
            src, apex = self._glued
            facets = (tuple(v for v in src if v != x) + (apex,) for x in src if x not in fixed)
        else:
            facets = (f for f in self.current.maximal_faces if all(v in f for v in fixed))
        return max(facets, key=lambda f: f[::-1])

    def sum(self, src: Optional[Simplex] = None, fixed: tuple[int, ...] = ()) -> None:
        """Glue a fresh simplex boundary at ``src``, or at the newest facet
        through ``fixed``; the fixed vertices go first in the pairing."""
        if src is None:
            src = self._newest(fixed)
        leaf, mapping = _glue_fresh_boundary(self.current, self.rng, fixed, src)
        self.steps.append({"op": "complex", "facets": [list(f) for f in leaf.facets]})
        n = len(self.steps)
        self._add({"op": "connected_sum", "left": n - 2, "right": n - 1,
                   "pairs": _pairs(mapping)}, leaf)
        (apex,) = leaf.vertices.difference(mapping.values())
        self._glued = (tuple(sorted(src)), apex)

    def arm(self, fixed: tuple[int, ...], length: int, first: Optional[Simplex] = None) -> None:
        """A linear arm of ``length`` summands through ``fixed``, the first
        glued at ``first`` when it is given."""
        for i in range(length):
            self.sum(first if i == 0 else None, fixed)

    def apply(self, op: str, f1: Simplex, f2: Simplex, mapping: dict[int, int]) -> None:
        """The fold or handle addition ``op`` along the given facet pair."""
        self._add({"op": op, "operand": len(self.steps) - 1, "source_facet": list(f1),
                   "target_facet": list(f2), "pairs": _pairs(mapping)})

    def fold(self, kind: str, fixed: tuple[int, ...] = (), avoid: Optional[int] = None):
        """Apply a seeded admissible ``kind`` ("vertex_fold", "edge_fold" or
        "handle", as in ``random_admissible``); its triple, or None if
        there is none."""
        triple = random_admissible(kind, self.current, self.rng, fixed, avoid)
        if triple is not None:
            self.apply("handle_addition" if kind == "handle" else kind, *triple)
        return triple

    def subdivide(self, facet: Simplex) -> None:
        self._add({"op": "facet_subdivision", "operand": len(self.steps) - 1,
                   "facet": list(facet), "new_vertex": max(self.current.vertices) + 1})

    def suspend(self, vertex: int) -> int:
        """One-vertex suspension with ``vertex`` as a pole; the new apex."""
        apex = max(self.current.vertices) + 1
        self._add({"op": "one_vertex_suspension", "operand": len(self.steps) - 1,
                   "vertex": vertex, "apex": apex})
        return apex


def random_script(seed: int, max_ops: int = 12) -> dict:
    """Seeded random build script of a 4-dimensional complex over the
    exact-g-law operations.

    Scripts are drawn from four families so folds and handles actually
    occur: vertex-fold arms, edge-fold arms, handle chains, and plain
    stacked spheres with sums and subdivisions.  All facet choices and
    bijections are frozen into the script.
    """
    rng = SplitMix64(seed)
    family = rng.randrange(4) if max_ops >= 12 else 3
    b = ScriptBuilder(rng, 5)
    ops = 0
    if family < 3:
        kind, fixed, length = (
            ("vertex_fold", (0,), VERTEX_ARM),
            ("edge_fold", (0, 1), EDGE_ARM),
            ("handle", (), HANDLE_ARM),
        )[family]
        b.arm(fixed, length)
        ops = length + (b.fold(kind, fixed) is not None)
    for _ in range(ops, max_ops):
        roll = rng.randrange(10)
        if roll < 5:
            b.sum(b.pick())
        elif roll < 8:
            b.subdivide(b.pick())
        else:
            b.sum(fixed=(0,))
    return b.script
