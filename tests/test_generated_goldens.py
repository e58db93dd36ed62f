"""A golden digest of the run results of generated programs.

`progen.generate` writes each program; each runs over a few generated
inputs four ways: untraced at the default step limit, untraced at a
step limit drawn below the run's own length (so it ends
budget-exhausted), traced, and as `call_function` over every carve of
the traced run, with the world each call leaves (`unit_docs`).  The
programs that nest statements and one expression as deep as the parser
allows run the same way, and so does the longest else-if chain, over
inputs that take its first, middle and last links and none.

A second digest pins a few short generated runs, and `call_function`
over their carves with the worlds they leave, cut at every step limit,
which is where a fuel check out of place shows.

The digests pin what the VM computes, charges, records and reports for
a crash on programs nobody wrote by hand.  Set CARVELIFT_GEN_PROGRAMS
to a pinned count below to run a wider sample.
"""

import os

from carvelift.carving import carve_with_stats
from carvelift.inputs import SystemInput
from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.vm.interp import (
    RunOptions, call_function, run_system, run_with_tracing,
)
from carvelift.vm.trace import serialize_run_result

from progen import (
    else_if_chain, generate, generate_input, main_source, nested_sources,
)
from test_run_goldens import digest, encode_world, unit_docs

GEN_SEED = 1105
INPUTS_PER_PROGRAM = 3
# The parser's limits: statement bodies 20 deep, expressions 64 deep.
NESTED_BLOCKS, NESTED_EXPR = 20, 64
CHAIN_LINKS = 128   # the parser's limit on else-if links
CHAIN_TAKEN = (0, 1, 64, 127, 128, 129)     # k, the link taken
CHAIN_GOLDEN = "f51ec3af9b3294491a560aada079a9efe8b6128902d339a31f13666f2e6a9bc7"

SWEPT_PROGRAMS, SWEPT_MAX_STEPS = 8, 800
SWEPT_GOLDEN = "6852c03593d9865ed040779bfdf3f544abd7d74573db88d7c1b28c9f4ee969ec"

GOLDENS = {
    60: "a4d9859d885437147e835850813cb01d92bd631beda563c629ffc8ea0f15194a",
    600: "f66b67d4d044b273260cc59ada851db40d2aba2e7762cc2db7e677bad81feff4",
}


def program_docs(program, inputs, rng) -> list:
    docs = []
    for s in inputs:
        full = run_system(program, s)
        limit = rng.randint(1, max(1, full.steps - 1))
        docs += [serialize_run_result(full),
                 serialize_run_result(run_system(program, s, RunOptions(step_limit=limit))),
                 serialize_run_result(run_with_tracing(program, s)),
                 unit_docs(program, s, RunOptions())]
    return docs


def generated_docs(count: int) -> list:
    master = Rng(GEN_SEED)
    docs = []
    for _ in range(count):
        rng = master.split()
        source = generate(rng)
        inputs = [generate_input(rng) for _ in range(INPUTS_PER_PROGRAM)]
        docs.append(program_docs(parse(source), inputs, rng))
    for source in nested_sources(NESTED_BLOCKS, NESTED_EXPR):
        rng = master.split()
        inputs = [generate_input(rng) for _ in range(INPUTS_PER_PROGRAM)]
        docs.append(program_docs(parse(source), inputs, rng))
    return docs


def swept_docs(count: int, max_steps: int) -> list:
    """Untraced and traced runs cut at every step limit up to where they
    end, for the first `count` generated programs whose first input runs
    at most `max_steps` steps; and so is `call_function` over each carve
    of the traced run, with the world it leaves."""
    master, docs = Rng(GEN_SEED), []
    while count:
        rng = master.split()
        program = parse(generate(rng))
        s = generate_input(rng)
        full = run_system(program, s).steps
        if full > max_steps:
            continue
        count -= 1
        for limit in range(1, full + 2):
            docs += [serialize_run_result(runner(program, s, RunOptions(step_limit=limit)))
                     for runner in (run_system, run_with_tracing)]
        for carved in carve_with_stats(run_with_tracing(program, s))[0]:
            args, world = carved.context.world()
            end = call_function(program, carved.start[0], args, world).steps
            for limit in range(1, end + 2):
                args, world = carved.context.world()
                r = call_function(program, carved.start[0], args, world,
                                  RunOptions(step_limit=limit))
                docs.append({"result": serialize_run_result(r), "world": encode_world(world)})
    return docs


def test_generated_programs_cut_at_every_step_limit_match_golden_digest():
    assert digest(swept_docs(SWEPT_PROGRAMS, SWEPT_MAX_STEPS)) == SWEPT_GOLDEN


def test_generated_program_run_results_match_golden_digest():
    count = int(os.environ.get("CARVELIFT_GEN_PROGRAMS", "60"))
    assert count in GOLDENS, f"no digest pinned for {count} programs"
    assert digest(generated_docs(count)) == GOLDENS[count]


def test_longest_else_if_chain_run_results_match_golden_digest():
    program = parse(main_source(else_if_chain(CHAIN_LINKS)))
    inputs = [SystemInput((b"k" * k,), b"") for k in CHAIN_TAKEN]
    assert digest(program_docs(program, inputs, Rng(GEN_SEED))) == CHAIN_GOLDEN
