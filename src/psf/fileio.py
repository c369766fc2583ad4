"""Plain-text facet files.

One facet per line as vertex labels separated by ASCII blanks (space,
tab, vertical tab, form feed and carriage return), each label in ASCII
decimal digits and nothing else, no longer than ``int`` converts
(``sys.get_int_max_str_digits()``); ``#`` starts a comment and blank
lines are skipped.  Lines end only at ``\n``, so the carriage return of a
CRLF ending is a trailing blank, and a reported line and column are
those an editor or ``wc -l`` shows.  Every label of a line is checked
before a repeated label on it is reported.  The writer emits the
canonical form (sorted vertices within sorted facets), so parse and
print are mutually inverse on canonical files.
"""

from __future__ import annotations

import re

from .complexes import Complex, ComplexError


_TOKEN = re.compile(r"[^ \t\v\f\r]+")
_LABEL = re.compile(r"-?[0-9]+")


class ParseError(ComplexError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_complex(text: str) -> Complex:
    facets: list[list[int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        row: list[int] = []
        repeat = None
        for match in _TOKEN.finditer(raw.split("#", 1)[0]):
            token, column = match.group(), match.start() + 1
            if not _LABEL.fullmatch(token):
                raise ParseError(f"not an integer: {token!r}", lineno, column)
            if token[0] == "-":
                raise ParseError(f"negative vertex label {token}", lineno, column)
            try:
                label = int(token)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"vertex label too long ({len(token)} digits)", lineno, column) from None
            if label in row and repeat is None:
                repeat = ParseError(f"repeated vertex {label} in facet", lineno, column)
            row.append(label)
        if repeat is not None:
            raise repeat
        if row:
            facets.append(row)
    if not facets:
        raise ParseError("no facets in file", 1, 1)
    lengths = {len(r) for r in facets}
    if len(lengths) > 1:
        raise ParseError(f"facet lengths differ: {sorted(lengths)}", 1, 1)
    return Complex.from_facets(facets)


def format_complex(k: Complex) -> str:
    return "\n".join(" ".join(str(v) for v in f) for f in k.facets) + "\n"
