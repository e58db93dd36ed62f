"""Branch goal enumeration.

A goal is one outcome of one conditional statement.  Every `if` contributes
(then, else) and every `while` contributes (loop-enter, loop-exit), so the
goal count is exactly twice the number of conditional statements.
`branch_goals` alone names a statement's goals: the goal sets here and the
goals the VM's compiled code adds are both made by it.
"""

from __future__ import annotations

from typing import NamedTuple

from .ast import Program, SIf, SWhile, iter_stmts
from .errors import UnknownFunction

OUTCOMES_IF = ("then", "else")
OUTCOMES_WHILE = ("loop-enter", "loop-exit")


class BranchGoal(NamedTuple):
    fn: str
    stmt: int
    outcome: str

    def __str__(self) -> str:
        return f"{self.fn}:{self.stmt}:{self.outcome}"

    @classmethod
    def parse(cls, text: str) -> "BranchGoal":
        fn, stmt, outcome = text.rsplit(":", 2)
        return cls(fn, int(stmt), outcome)


def branch_goals(fn_name: str, stmt) -> tuple[BranchGoal, ...]:
    """The goals of statement `stmt` of function `fn_name`, in outcome
    order; none unless it is an `if` or a `while`."""
    outcomes = (OUTCOMES_IF if isinstance(stmt, SIf)
                else OUTCOMES_WHILE if isinstance(stmt, SWhile) else ())
    return tuple(BranchGoal(fn_name, stmt.stmt_id, o) for o in outcomes)


def goals_in_function(program: Program, fn_name: str) -> set[BranchGoal]:
    fn = program.function(fn_name)
    if fn is None:
        raise UnknownFunction(f"no function named {fn_name!r}")
    return {g for s in iter_stmts(fn.body) for g in branch_goals(fn_name, s)}


def enumerate_goals(program: Program) -> set[BranchGoal]:
    """All branch goals of the program: the union over its functions.

    The per-function sets partition this set because statement ids are
    unique program-wide.
    """
    goals: set[BranchGoal] = set()
    for fn in program.functions:
        goals |= goals_in_function(program, fn.name)
    return goals
