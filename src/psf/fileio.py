"""Plain-text facet files.

One facet per line as whitespace-separated vertex labels, each in ASCII
decimal digits and nothing else; ``#`` starts a comment and blank lines
are skipped.  The writer emits the canonical form (sorted vertices
within sorted facets), so parse and print are mutually inverse on
canonical files.
"""

from __future__ import annotations

import re

from .complexes import Complex, ComplexError


class ParseError(ComplexError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_complex(text: str) -> Complex:
    facets: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        row: list[int] = []
        for match in re.finditer(r"\S+", line):
            token, column = match.group(), match.start() + 1
            if not re.fullmatch(r"-?[0-9]+", token):
                raise ParseError(f"not an integer: {token!r}", lineno, column)
            if token[0] == "-":
                raise ParseError(f"negative vertex label {token}", lineno, column)
            label = int(token)
            if label in row:
                raise ParseError(f"repeated vertex {label} in facet", lineno, column)
            row.append(label)
        facets.append(row)
    if not facets:
        raise ParseError("no facets in file", 1, 1)
    lengths = {len(r) for r in facets}
    if len(lengths) > 1:
        raise ParseError(f"facet lengths differ: {sorted(lengths)}", 1, 1)
    return Complex.from_facets(facets)


def format_complex(k: Complex) -> str:
    return "\n".join(" ".join(str(v) for v in f) for f in k.facets) + "\n"
