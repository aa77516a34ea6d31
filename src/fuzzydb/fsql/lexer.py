"""Tokenizer for the FSQL query language.

One master pattern splits the text; each token is the first of these shapes
that matches where the last one ended:

- white space (str.isspace) separates tokens.  Only '\\n' starts a new line;
  every other character, '\\r' and '\\t' included, is one column.
- a NUMBER is unsigned and written in ASCII digits: '26', '0.5', with an
  optional exponent ('1e-05', '2.5E+16').  A '.' or an 'e' with no digit after
  it is not part of the number, so '1e' is the number 1 and the word 'e'.  A
  number too large for a float is an error at its first digit.
- a word is a letter or '_' (str.isalpha) followed by letters, digits and
  '_' (str.isalnum).  A keyword, in any case, is its upper case spelling as
  the token kind; any other word is an IDENT.
- a LABEL is '$' immediately followed by a word; the token's text drops the '$'.
  A '$' with no word after it is an error.
- one of . , % ( ) ; is a punctuation token named in _PUNCT.

Any other character is an error at its position.  Positions are 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional

from ..errors import FsqlSyntaxError

KEYWORDS = frozenset({"SELECT", "FROM", "WHERE", "AND", "OR", "FEQ", "THOLD", "CDEG"})

_PUNCT = {".": "DOT", ",": "COMMA", "%": "PERCENT", "(": "LPAREN", ")": "RPAREN", ";": "SEMI"}

# \s is exactly str.isspace and \w exactly str.isalnum or '_'; \d would take '٣', so [0-9].
# A word or label that starts with a digit-like \w ('²', 'Ⅷ') is refused in tokenize.
_MASTER = re.compile(
    r"""(?P<SPACE>\s+)
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<WORD>\w+)
      | (?P<LABEL>\$\w*)
      | (?P<PUNCT>[.,%();])
      | (?P<OTHER>.)""",
    re.VERBOSE | re.DOTALL,
)


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


def tokenize(source: str) -> List[Token]:
    """Split source into tokens by the rules in the module docstring, ending with an EOF marker."""
    tokens = []
    line, line_start = 1, 0  # line_start: the offset just after the last '\n'
    for m in _MASTER.finditer(source):
        kind, text, start = m.lastgroup, m.group(), m.start()
        column = start - line_start + 1
        if kind == "SPACE":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif kind == "NUMBER":
            value = float(text)
            if not math.isfinite(value):
                cut = text[:20] + "..." if len(text) > 20 else text
                raise FsqlSyntaxError(f"number {cut} is too large", line, column)
            tokens.append(Token("NUMBER", text, line, column, value=value))
        elif kind == "WORD" and (text[0].isalpha() or text[0] == "_"):
            upper = text.upper()
            tokens.append(Token(upper if upper in KEYWORDS else "IDENT", text, line, column))
        elif kind == "LABEL":
            if not (text[1:2].isalpha() or text[1:2] == "_"):
                raise FsqlSyntaxError("'$' must be followed by a label name", line, column)
            tokens.append(Token("LABEL", text[1:], line, column))
        elif kind == "PUNCT":
            tokens.append(Token(_PUNCT[text], text, line, column))
        else:  # OTHER, or a word that starts with a digit-like character
            raise FsqlSyntaxError(f"unexpected character {text[0]!r}", line, column)
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens
