"""Tokenizer for the mini-language."""

from __future__ import annotations

from typing import NamedTuple

from .ast import Pos
from .errors import MiniSyntaxError

KEYWORDS = {
    "fn", "let", "if", "else", "while", "return", "global", "record",
    "null", "int", "float", "bytes", "ref",
}

# Longest first so the scanner is greedy.
_PUNCT = [
    "->", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".",
    "+", "-", "*", "/", "%", "=", "<", ">", "!",
]

_ESCAPES = {
    b"n": b"\n",
    b"t": b"\t",
    b"r": b"\r",
    b"0": b"\x00",
    b"\\": b"\\",
    b'"': b'"',
}


class Token(NamedTuple):
    kind: str  # ident | keyword | int | float | bytes | punct | eof
    text: str
    value: object
    pos: Pos


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def pos() -> Pos:
        return Pos(line, col)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                advance(1)
            continue
        start = pos()
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                text = source[i:j]
                tokens.append(Token("float", text, float(text), start))
            else:
                # Wrapped to 64 bits as parse_int wraps: 2**64 divides
                # 10**64, so the last 64 digits fix the value.
                text = source[i:j]
                v = int(text[-64:]) & 0xFFFF_FFFF_FFFF_FFFF
                tokens.append(Token("int", text, v - (v >> 63 << 64), start))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, text, start))
            advance(j - i)
            continue
        if ch == '"':
            value = bytearray()
            j = i + 1
            while True:
                if j >= n:
                    raise MiniSyntaxError(start, "unterminated bytes literal")
                c = source[j]
                if c == '"':
                    j += 1
                    break
                if c == "\n":
                    raise MiniSyntaxError(start, "newline in bytes literal")
                if c == "\\":
                    if j + 1 >= n:
                        raise MiniSyntaxError(start, "unterminated escape")
                    esc = source[j + 1]
                    if esc == "x":
                        if j + 3 >= n:
                            raise MiniSyntaxError(start, "truncated \\x escape")
                        hexpart = source[j + 2:j + 4]
                        try:
                            value.append(int(hexpart, 16))
                        except ValueError:
                            raise MiniSyntaxError(start, f"bad \\x escape: {hexpart!r}") from None
                        j += 4
                        continue
                    enc = _ESCAPES.get(esc.encode())
                    if enc is None:
                        raise MiniSyntaxError(start, f"unknown escape: \\{esc}")
                    value.extend(enc)
                    j += 2
                    continue
                value.extend(c.encode("utf-8"))
                j += 1
            tokens.append(Token("bytes", source[i:j], bytes(value), start))
            advance(j - i)
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, p, start))
                advance(len(p))
                break
        else:
            raise MiniSyntaxError(start, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", None, pos()))
    return tokens
