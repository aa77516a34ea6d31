"""Tokenizer for the FSQL query language."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..errors import FsqlSyntaxError

KEYWORDS = frozenset({"SELECT", "FROM", "WHERE", "AND", "OR", "FEQ", "THOLD", "CDEG"})

_PUNCT = {
    ".": "DOT",
    ",": "COMMA",
    "%": "PERCENT",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword name, IDENT, LABEL, NUMBER, a _PUNCT name, or EOF
    text: str
    line: int
    column: int
    value: Optional[float] = None  # numeric payload for NUMBER tokens

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of input"
        if self.kind == "LABEL":
            return f"'${self.text}'"
        return f"{self.text!r}"


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(source: str) -> List[Token]:
    """Split source into tokens, ending with an EOF marker.

    Keywords are case-insensitive and come back with their canonical upper
    case spelling as the token kind. Numbers are unsigned decimals; labels
    are '$' immediately followed by an identifier.
    """
    tokens = []
    i = 0
    line = 1
    column = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if c.isspace():
            i += 1
            column += 1
            continue
        start_col = column
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            upper = word.upper()
            kind = upper if upper in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, start_col))
            column += j - i
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1].isdigit():
                j += 2
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            value = float(text)
            if not math.isfinite(value):
                raise FsqlSyntaxError(f"number {text[:20]}... is too large", line, start_col)
            tokens.append(Token("NUMBER", text, line, start_col, value=value))
            column += j - i
            i = j
            continue
        if c == "$":
            j = i + 1
            if j >= n or not _is_ident_start(source[j]):
                raise FsqlSyntaxError("'$' must be followed by a label name", line, start_col)
            j += 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            tokens.append(Token("LABEL", source[i + 1 : j], line, start_col))
            column += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, line, start_col))
            i += 1
            column += 1
            continue
        raise FsqlSyntaxError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("EOF", "", line, column))
    return tokens
