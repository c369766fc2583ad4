"""Plain-text facet files.

One facet per line as vertex labels separated by ASCII blanks (space,
tab, vertical tab, form feed and carriage return), each label in ASCII
decimal digits and nothing else, no longer than ``int`` converts
(``sys.get_int_max_str_digits()``); ``#`` starts a comment and blank
lines are skipped.  Lines end only at ``\n``, so the carriage return of a
CRLF ending is a trailing blank, and a reported line and column are
those an editor or ``wc -l`` shows.

One pattern accepts a line: a comment-stripped line of ASCII digits and
blanks is read in bulk by ``str.split`` and ``int``, and its sorted row
goes to the complex as it is.  Only a line that the pattern, ``int`` or
the repeat test refuses is scanned token by token, to word the refusal:
every label of the line is checked before a repeated label on it is
reported.  Facets of differing length are reported at the line of the
first facet whose length differs from the first facet's.  The writer
emits the canonical form (sorted vertices within sorted facets), so
parse and print are mutually inverse on canonical files.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .complexes import Complex, ComplexError, Simplex


_LINE = re.compile(r"[0-9 \t\v\f\r]*")
_TOKEN = re.compile(r"[^ \t\v\f\r]+")
_LABEL = re.compile(r"-?[0-9]+")


class ParseError(ComplexError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_complex(text: str) -> Complex:
    facets: list[Simplex] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        if not _LINE.fullmatch(body):
            _refuse(raw, lineno)
        try:
            row = sorted(map(int, body.split()))
        except ValueError:  # more digits than int() converts
            _refuse(raw, lineno)
        if row:
            if len(set(row)) != len(row):
                _refuse(raw, lineno)
            facets.append(tuple(row))
    if not facets:
        raise ParseError("no facets in file", 1, 1)
    lengths = set(map(len, facets))
    if len(lengths) > 1:
        raise ParseError(f"facet lengths differ: {sorted(lengths)}", _odd_line(text, len(facets[0])), 1)
    return Complex._trusted(facets)


def _refuse(raw: str, lineno: int) -> NoReturn:
    """Raise the ParseError of line ``lineno``, one the pattern, ``int``
    or the repeat test refused: at its first label that is not ASCII
    digits, is negative or is too long, else at its first repeat."""
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
    raise repeat


def _odd_line(text: str, width: int) -> int:
    """The line of the first facet of an accepted ``text`` whose length
    is not ``width``."""
    lengths = (len(raw.split("#", 1)[0].split()) for raw in text.split("\n"))
    return next(lineno for lineno, length in enumerate(lengths, start=1) if length not in (0, width))


def format_complex(k: Complex) -> str:
    return "\n".join(" ".join(str(v) for v in f) for f in k.facets) + "\n"
