"""System-level test inputs.

A SystemInput is everything a run consumes from the outside: the argv
elements and the stdin byte string.  For mapping and mutation purposes the
input is a flat list of byte-string elements, indexed argv-first with stdin
as the final element.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemInput:
    """One input of a system run: its argument bytes and its stdin."""
    argv: tuple[bytes, ...] = ()
    stdin: bytes = b""

    def elements(self) -> list[bytes]:
        return [*self.argv, self.stdin]

    def replace_element(self, index: int, data: bytes) -> "SystemInput":
        if index < len(self.argv):
            argv = list(self.argv)
            argv[index] = data
            return SystemInput(tuple(argv), self.stdin)
        if index == len(self.argv):
            return SystemInput(self.argv, data)
        raise IndexError(f"input element {index} out of range")
