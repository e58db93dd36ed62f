"""Int proofs never change a result.

The compiler drops an operand's type test where `int_locals` proves the
local holds an int.  Each program `progen` writes with `retype=True`
(int locals made another type on some paths, then read in arithmetic,
in orderings and in loop heads, and float arguments where a function
declares another type) runs over a few inputs and step limits twice:
compiled as it is, and compiled with no local proven an int.
The serialized results must be equal.  Only `int_locals` is stubbed:
`yields_int` also types the compiler's folded comparisons, so without
it a condition would be a Python bool and the runs would differ for
that reason alone.  Set CARVELIFT_INT_PROOF_PROGRAMS to run a wider
sample than the default.
"""

import os
from collections import defaultdict

from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.vm import interp
from carvelift.vm.interp import (
    DEFAULT_STEP_LIMIT, RunOptions, compiled, run_system, run_with_tracing,
)
from carvelift.vm.trace import serialize_run_result

from progen import generate, generate_input

PROOF_SEED = 2207
PROGRAMS = int(os.environ.get("CARVELIFT_INT_PROOF_PROGRAMS", "60"))
INPUTS_PER_PROGRAM = 3
LIMITS_PER_INPUT = 2


def unproven(monkeypatch, source):
    """`source` compiled with no local proven an int."""
    program = parse(source)
    with monkeypatch.context() as m:
        m.setattr(interp, "int_locals", lambda fn, global_names: defaultdict(set))
        compiled(program)
    return program


def results(program, runs) -> list:
    """The serialized result of each (input, step limit, traced) run, or
    the repr of the exception it raised: a wrong proof can let Python
    itself fail."""
    out = []
    for s, limit, traced in runs:
        try:
            out.append(serialize_run_result((run_with_tracing if traced else run_system)(
                program, s, RunOptions(step_limit=limit))))
        except Exception as exc:
            out.append(repr(exc))
    return out


def test_int_proofs_never_change_a_result(monkeypatch):
    master = Rng(PROOF_SEED)
    differ = []
    for n in range(PROGRAMS):
        rng = master.split()
        source = generate(rng, retype=True)
        plain, runs = unproven(monkeypatch, source), []
        for _ in range(INPUTS_PER_PROGRAM):
            s = generate_input(rng)
            full = run_system(plain, s).steps
            runs += [(s, DEFAULT_STEP_LIMIT, False), (s, DEFAULT_STEP_LIMIT, True)]
            runs += [(s, rng.randint(1, max(1, full)), False) for _ in range(LIMITS_PER_INPUT)]
        if results(parse(source), runs) != results(plain, runs):
            differ.append(n)
    assert differ == []
