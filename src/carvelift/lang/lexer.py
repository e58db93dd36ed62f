"""Tokenizer for the mini-language, by the grammar of docs/minilang.md:
one pattern with a named group per token kind.  Where no group
matches is a syntax error; a bytes literal is read up to its first
fault, which names the diagnostic.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import Pos
from .errors import MiniSyntaxError

KEYWORDS = set("fn let if else while return global record null int float bytes ref".split())
PUNCT = "-> == != <= >= && || ( ) { } [ ] , ; : . + - * / % = < > !".split()    # longest first

# A bytes literal's escapes, after the backslash, and their bytes; `\xHH`
# is any byte.  The pretty-printer writes literals by this table too.
ESCAPES = {b"n": b"\n", b"t": b"\t", b"r": b"\r", b"0": b"\x00", b"\\": b"\\", b'"': b'"'}

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A literal up to its closing quote, or else to its first fault; a lone
# surrogate is one, since it has no UTF-8 bytes.
_OPEN = (r'"(?:[^"\\\n\ud800-\udfff]|\\[' + re.escape(b"".join(ESCAPES).decode())
         + r"]|\\x[0-9A-Fa-f]{2})*")
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("skip", r"[ \t\r\n]+|#[^\n]*"),
    ("float", r"[0-9]+\.[0-9]+"),
    ("int", r"[0-9]+"),
    ("ident", IDENT),
    ("bytes", _OPEN + '"'),
    ("punct", "|".join(map(re.escape, PUNCT))),
)))
_FAULT, _ESCAPE = re.compile(_OPEN), re.compile(rb"\\(?:x(..)|(.))")


def _int64(text: str) -> int:
    # Wrapped to 64 bits as parse_int wraps: 2**64 divides 10**64, so
    # the last 64 digits fix the value.
    v = int(text[-64:]) & 0xFFFF_FFFF_FFFF_FFFF
    return v - (v >> 63 << 64)


def _bytes(text: str) -> bytes:
    return _ESCAPE.sub(lambda m: bytes.fromhex(m[1].decode()) if m[1] else ESCAPES[m[2]],
                       text[1:-1].encode("utf-8"))


_VALUE = {"float": float, "int": _int64, "ident": str, "bytes": _bytes, "punct": str}


class Token(NamedTuple):
    kind: str  # ident | keyword | int | float | bytes | punct | eof
    text: str
    value: object
    pos: Pos


def _refusal(source: str, i: int) -> str:
    """Why no token starts at `i`."""
    if source[i] != '"':
        return f"unexpected character {source[i]!r}"
    j = _FAULT.match(source, i).end()
    if j == len(source):
        return "unterminated bytes literal"
    if source[j] == "\n":
        return "newline in bytes literal"
    if "\ud800" <= source[j] <= "\udfff":
        return "lone surrogate in bytes literal"
    esc, digits = source[j + 1:j + 2], source[j + 2:j + 4]     # after a backslash
    if esc != "x":
        return f"unknown escape: \\{esc}" if esc else "unterminated escape"
    return f"bad \\x escape: {digits!r}" if len(digits) == 2 else "truncated \\x escape"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, line_start = 0, 1, 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        if m is None:
            raise MiniSyntaxError(Pos(line, i - line_start + 1), _refusal(source, i))
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in text:
                line, line_start = line + text.count("\n"), i + text.rindex("\n") + 1
        else:   # only an identifier's text can be a keyword
            tokens.append(Token("keyword" if text in KEYWORDS else kind, text,
                                _VALUE[kind](text), Pos(line, i - line_start + 1)))
        i = m.end()
    tokens.append(Token("eof", "", None, Pos(line, i - line_start + 1)))
    return tokens
