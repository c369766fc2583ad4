"""Build scripts: a small JSON format that pins every construction step.

A script is a list of steps; each step either creates a complex
(simplex boundary, stacked sphere, literal facet list) or applies an
operation to earlier steps, with all facets and bijections written out.
Replay is therefore byte-deterministic.  The replay also keeps a
g-ledger: for every operation with an exact g-law the observed change
of (g2, g3) is compared with the predicted one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .complexes import Complex, ComplexError
from .build import (
    SplitMix64,
    _glue_fresh_boundary,
    boundary_simplex,
    cone,
    connected_sum,
    edge_fold,
    facet_subdivision,
    fold_deltas,
    handle_addition,
    one_vertex_suspension,
    random_admissible,
    stacked_sphere,
    vertex_fold,
)
from .enumeration import g2 as _g2
from .enumeration import g3 as _g3

SCRIPT_VERSION = 1

LEAF_OPS = ("boundary_simplex", "stacked_sphere", "complex")
DERIVED_OPS = (
    "connected_sum",
    "handle_addition",
    "vertex_fold",
    "edge_fold",
    "facet_subdivision",
    "one_vertex_suspension",
    "cone",
)


class ScriptError(ComplexError):
    """Malformed script document (schema level, not admissibility)."""


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
        if not self.checked:
            return True
        if self.delta_g2 != self.expected_g2:
            return False
        return self.expected_g3 is None or self.delta_g3 == self.expected_g3


@dataclass
class ReplayResult:
    complexes: list[Complex]
    ledger: list[LedgerRow]

    @property
    def final(self) -> Complex:
        return self.complexes[-1]

    @property
    def ledger_ok(self) -> bool:
        return all(row.ok for row in self.ledger)


def _g2g3(k: Complex) -> tuple[Optional[int], Optional[int]]:
    a = _g2(k) if k.dim >= 2 else None
    b = _g3(k) if k.dim >= 3 else None
    return a, b


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


def _integer(value) -> int:
    """``value`` if it is a JSON integer; booleans, floats and strings raise."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _labels(value) -> list[int]:
    return [_integer(v) for v in value]


def _facet_list(value) -> list[list[int]]:
    return [_labels(f) for f in value]


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
        for key in ("operand", "left", "right"):
            if key in step:
                ref = step[key]
                if type(ref) is not int or not (0 <= ref < i):
                    raise ScriptError(f"step {i} references invalid step {ref!r}")
    return steps


def replay(doc: dict) -> ReplayResult:
    """Execute a validated script and build its g-ledger."""
    steps = validate_script(doc)
    complexes: list[Complex] = []
    ledger: list[LedgerRow] = []

    for i, step in enumerate(steps):
        op = step["op"]
        if op == "boundary_simplex":
            result = boundary_simplex(_field(step, "n", _integer))
        elif op == "stacked_sphere":
            result = stacked_sphere(
                _field(step, "d", _integer),
                _field(step, "k", _integer),
                _field(step, "seed", _integer),
            )
        elif op == "complex":
            result = Complex(_field(step, "facets", _facet_list))
        elif op == "connected_sum":
            left = complexes[_need(step, "left")]
            right = complexes[_need(step, "right")]
            result = connected_sum(left, right, _field(step, "pairs", _pair_map))
        elif op in ("handle_addition", "vertex_fold", "edge_fold"):
            operand = complexes[_need(step, "operand")]
            fn = {
                "handle_addition": handle_addition,
                "vertex_fold": vertex_fold,
                "edge_fold": edge_fold,
            }[op]
            result = fn(
                operand,
                _field(step, "source_facet", _labels),
                _field(step, "target_facet", _labels),
                _field(step, "pairs", _pair_map),
            )
        elif op == "facet_subdivision":
            operand = complexes[_need(step, "operand")]
            result = facet_subdivision(
                operand, _field(step, "facet", _labels), _field(step, "new_vertex", _integer, True)
            )
        elif op == "one_vertex_suspension":
            operand = complexes[_need(step, "operand")]
            result = one_vertex_suspension(
                operand, _field(step, "vertex", _integer), _field(step, "apex", _integer, True)
            )
        elif op == "cone":
            operand = complexes[_need(step, "operand")]
            result = cone(_field(step, "vertex", _integer), operand)
        else:  # pragma: no cover - validate_script rejects unknown ops
            raise ScriptError(f"unhandled op {op!r}")

        complexes.append(result)
        ledger.append(_ledger_row(i, op, step, result, complexes))
    return ReplayResult(complexes, ledger)


def _ledger_row(i: int, op: str, step: dict, result: Complex, complexes) -> LedgerRow:
    cur2, cur3 = _g2g3(result)
    if op == "connected_sum":
        left = complexes[step["left"]]
        right = complexes[step["right"]]
        l2, l3 = _g2g3(left)
        r2, r3 = _g2g3(right)
        return LedgerRow(
            i, op, cur2, cur3,
            delta_g2=None if cur2 is None else cur2 - l2 - r2,
            delta_g3=None if cur3 is None else cur3 - l3 - r3,
            expected_g2=0 if cur2 is not None else None,
            expected_g3=0 if cur3 is not None else None,
        )
    if op in ("handle_addition", "vertex_fold", "edge_fold", "facet_subdivision"):
        operand = complexes[step["operand"]]
        o2, o3 = _g2g3(operand)
        e2, e3 = (0, 0) if op == "facet_subdivision" else fold_deltas(op, operand.dim)
        return LedgerRow(
            i, op, cur2, cur3,
            delta_g2=None if cur2 is None else cur2 - o2,
            delta_g3=None if cur3 is None or o3 is None else cur3 - o3,
            expected_g2=e2 if cur2 is not None else None,
            expected_g3=e3 if cur3 is not None and o3 is not None else None,
        )
    return LedgerRow(i, op, cur2, cur3)


def load_script(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScriptError(f"invalid JSON: {exc}") from exc
    validate_script(doc)
    return doc


def dump_script(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- random script generation ---------------------------------------------


class _ScriptBuilder:
    def __init__(self):
        self.steps: list[dict] = []
        self.complexes: list[Complex] = []

    def add(self, step: dict, result: Complex) -> int:
        self.steps.append(step)
        self.complexes.append(result)
        return len(self.steps) - 1

    @property
    def current(self) -> Complex:
        return self.complexes[-1]

    @property
    def current_index(self) -> int:
        return len(self.steps) - 1

    def leaf_boundary(self, n: int) -> int:
        return self.add({"op": "boundary_simplex", "n": n}, boundary_simplex(n))

    def sum_with_boundary(self, rng: SplitMix64, fixed: tuple[int, ...] = (),
                          newest: bool = False) -> None:
        cur = self.current
        cur_idx = self.current_index
        src = None
        if not newest:
            candidates = [f for f in cur.facets if set(fixed) <= set(f)]
            src = candidates[rng.randrange(len(candidates))]
        leaf, mapping = _glue_fresh_boundary(cur, rng, fixed, src)
        leaf_idx = self.add(
            {"op": "complex", "facets": [list(f) for f in leaf.facets]}, leaf
        )
        step = {
            "op": "connected_sum",
            "left": cur_idx,
            "right": leaf_idx,
            "pairs": [[a, b] for a, b in sorted(mapping.items())],
        }
        self.add(step, connected_sum(cur, leaf, mapping))

    def fold(self, kind: str, rng: SplitMix64, **kwargs) -> bool:
        cur = self.current
        cur_idx = self.current_index
        triple = random_admissible(kind, cur, rng, **kwargs)
        if triple is None:
            return False
        f1, f2, mapping = triple
        op = {"vertex_fold": "vertex_fold", "edge_fold": "edge_fold", "handle": "handle_addition"}[kind]
        fn = {"vertex_fold": vertex_fold, "edge_fold": edge_fold, "handle": handle_addition}[kind]
        step = {
            "op": op,
            "operand": cur_idx,
            "source_facet": list(f1),
            "target_facet": list(f2),
            "pairs": [[a, b] for a, b in sorted(mapping.items())],
        }
        self.add(step, fn(cur, f1, f2, mapping))
        return True

    def subdivide(self, rng: SplitMix64) -> None:
        cur = self.current
        cur_idx = self.current_index
        facet = cur.facets[rng.randrange(len(cur.facets))]
        new_vertex = max(cur.vertices) + 1
        step = {
            "op": "facet_subdivision",
            "operand": cur_idx,
            "facet": list(facet),
            "new_vertex": new_vertex,
        }
        self.add(step, facet_subdivision(cur, facet, new_vertex))


def random_script(seed: int, max_ops: int = 12, d: int = 4) -> dict:
    """Seeded random build script over the exact-g-law operations.

    Scripts are drawn from four families so folds and handles actually
    occur: vertex-fold arms, edge-fold arms, handle chains, and plain
    stacked spheres with sums and subdivisions.  All facet choices and
    bijections are frozen into the script.
    """
    rng = SplitMix64(seed)
    sb = _ScriptBuilder()
    family = rng.randrange(4) if max_ops >= 12 else 3
    ops = 0

    def arm(fixed, length, newest=True):
        nonlocal ops
        for _ in range(length):
            sb.sum_with_boundary(rng, fixed=fixed, newest=newest)
            ops += 1

    sb.leaf_boundary(d + 1)
    if family == 0 and d == 4:
        arm((0,), 10)
        if sb.fold("vertex_fold", rng, fixed_vertex=0):
            ops += 1
    elif family == 1 and d == 4:
        arm((0, 1), 9)
        if sb.fold("edge_fold", rng, fixed_edge=(0, 1)):
            ops += 1
    elif family == 2 and d == 4:
        arm((), 11, newest=True)
        if sb.fold("handle", rng):
            ops += 1
    while ops < max_ops:
        roll = rng.randrange(10)
        if roll < 5:
            sb.sum_with_boundary(rng)
        elif roll < 8:
            sb.subdivide(rng)
        else:
            sb.sum_with_boundary(rng, fixed=(0,), newest=True)
        ops += 1

    return {"version": SCRIPT_VERSION, "steps": sb.steps}
