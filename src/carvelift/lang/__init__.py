from .ast import Program
from .errors import (
    DuplicateDefinition, MiniLangError, MiniSyntaxError, UnknownFunction,
    UnresolvedReference,
)
from .goals import BranchGoal, enumerate_goals, goals_in_function
from .parser import BUILTINS, parse

__all__ = [
    "BUILTINS",
    "BranchGoal",
    "DuplicateDefinition",
    "MiniLangError",
    "MiniSyntaxError",
    "Program",
    "UnknownFunction",
    "UnresolvedReference",
    "enumerate_goals",
    "goals_in_function",
    "parse",
]
