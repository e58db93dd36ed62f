"""Golden digests of run results.

Each digest is the sha256 of the `serialize_run_result` documents of a
fixed set of runs:

  * every bundled subject over its bundled seeds plus a fixed
    `generate_batch`, untraced and traced, and its first seed under a
    step limit too small to finish (budget-exhausted);
  * `call_function` over the carves of a traced seed run, together with
    the world each call leaves behind, once at the default snapshot
    budget and once at one small enough to truncate contexts;
  * two small programs run over many inputs: one that computes and
    prints values of every type, and one that crashes in every kind and
    from every kind of position (nested call arguments, loop tests,
    callees, global initializers, the call-stack limit).

Anything that changes what the VM computes, charges, records or reports
for a crash moves one of these; such a change must say why in
CHANGES.md and pin the new values.
"""

import hashlib
import json

import pytest

from carvelift import resolve_program, resolve_seeds
from carvelift.carving import carve_with_stats
from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.sysgen import generate_batch
from carvelift.vm.interp import (
    RunOptions, call_function, run_system, run_with_tracing,
    serialize_run_result,
)
from carvelift.vm.values import encode_segments, encode_value

from conftest import SUBJECT_NAMES, mk_input

BATCH_RNG_SEED = 2024
BATCH_PER_SEED = 8
SMALL_STEP_LIMIT = 150
SMALL_DUMP_BYTES = 64


def digest(docs) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def encode_world(world) -> dict:
    globals_, segments = world
    return {"globals": {k: encode_value(v) for k, v in sorted(globals_.items())},
            "segments": encode_segments(segments)}


def subject_inputs(name):
    seeds = resolve_seeds(None, name)
    return seeds + generate_batch(seeds, BATCH_PER_SEED, Rng(BATCH_RNG_SEED))


def run_docs(program, inputs, runner, opts=RunOptions()):
    return [serialize_run_result(runner(program, s, opts)) for s in inputs]


def unit_docs(program, seed, opts: RunOptions):
    """Each carve of one traced seed run replayed, with its world after."""
    traced = run_with_tracing(program, seed, opts)
    docs = []
    for carved in carve_with_stats(traced)[0]:
        args, world = carved.context.world()
        r = call_function(program, carved.start[0], args, world, opts.unit())
        docs.append({"start": list(carved.start),
                     "truncated": carved.context.truncated,
                     "result": serialize_run_result(r),
                     "world": encode_world(world)})
    return docs


# ------------------------------------------------------- subjects

SUBJECT_GOLDENS = {
    "keycheck": {
        "system":
            "910f3df84cee4efad8e4e6be6472012682c3428eb4dad94462bcea444e27df90",
        "traced":
            "1e1c1441f17c1a3102b65892f07ce5437b8a58f42a096e66ca4fc79422678b5d",
        "budget":
            "19ce55338401780160c23bbe7d74ed485baeda901ab4049b00eb6d42478f29cc",
        "units":
            "221db6adc809b821c074f504320f56a8b9d16ffb4a5f8f8beb8a12f5e591c6a2",
        "units_truncated":
            "39917365add5993cd1931f8268c330e879b05e07b20d0e0ac753ff39efb32409",
    },
    "mini_cut": {
        "system":
            "9b63ca3e09dd5b1655cba08e641957561b2c13a362ea3f1ba24fc85f79a8ff41",
        "traced":
            "7fa362f0f1f36001e20aa71486b5e4af682721617e3d8384ed0417e53032ae5b",
        "budget":
            "e965214439a58f049cfe976419ace79cfbd9d961259ec73efae4e40c65c45258",
        "units":
            "df48d0bb91eea67100e4272393951f4a2be99c202f9692024d15e2a88436c8f5",
        "units_truncated":
            "df48d0bb91eea67100e4272393951f4a2be99c202f9692024d15e2a88436c8f5",
    },
    "mini_dc": {
        "system":
            "d350402c400fbc21dafa37d5bb4c2e8a4821c54d95bd17f188440758ef215623",
        "traced":
            "0f65f1eeeb8a42adc1afeaaec0ac4c467a3651d8e4204e6f2ef69590331dcfe1",
        "budget":
            "4b1c6d5ec45b430cd4f80c9e40cc0c907086b32e7c016b6add339884baa842fd",
        "units":
            "ed485180b7c87eb106ff62f647947cbb93d79d7f9226cb3945f40d73b637d8a2",
        "units_truncated":
            "aa2c0c7ffed804a17ab36a066b3327b73037409ba1925699e468769baa158b0c",
    },
    "mini_sed": {
        "system":
            "1bc7b421ad17bb881432127d8d1fc9f645f420efed0b1e82b3c5955d9939baef",
        "traced":
            "f2f8259a294381cf452b5d2e8f5ebe66fe6e78356280b37ace20528017a6611e",
        "budget":
            "793472740ab8e67ab5f2b188917a4b84c135acbef998db994a1201c6ce1b82d0",
        "units":
            "c53e7fa5e12a06185c46855e0485b8cfcec0f92731dd733d8610e8fcbd892f9f",
        "units_truncated":
            "052f42c9a2de3457703bb664dabbfcd8a991cc1fde8f165310efe46b03356777",
    },
    "mini_tac": {
        "system":
            "c7e7beee91657b123104f6cb78064f90757cbb28498221b9b7a3aacf333c2e3e",
        "traced":
            "f70519b3b16f91d4a63b0972e004c4b3f29bcb7c2025a417209a10360e6d588d",
        "budget":
            "a548c1c1eaaf49dc62bb9de61e7a1bef24df394f0996af3f4d612986383ee534",
        "units":
            "08f6f4cd1d66b97d16443c857c3c38cec53a02b01867c22d98db0059aeb474e0",
        "units_truncated":
            "08f6f4cd1d66b97d16443c857c3c38cec53a02b01867c22d98db0059aeb474e0",
    },
}


def subject_digests(name) -> dict[str, str]:
    program, _ = resolve_program(name)
    inputs = subject_inputs(name)
    small = RunOptions(step_limit=SMALL_STEP_LIMIT)
    return {
        "system": digest(run_docs(program, inputs, run_system)),
        "traced": digest(run_docs(program, inputs, run_with_tracing)),
        "budget": digest(run_docs(program, inputs[:1], run_system, small)
                         + run_docs(program, inputs[:1], run_with_tracing, small)),
        "units": digest(unit_docs(program, inputs[0], RunOptions())),
        "units_truncated": digest(unit_docs(
            program, inputs[0], RunOptions(max_dump_bytes=SMALL_DUMP_BYTES))),
    }


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_subject_run_results_match_golden_digests(name):
    assert subject_digests(name) == SUBJECT_GOLDENS[name]


def test_golden_runs_cover_what_they_claim():
    """The budget runs exhaust and the small snapshot budget truncates."""
    small = RunOptions(step_limit=SMALL_STEP_LIMIT)
    truncated = 0
    for name in SUBJECT_NAMES:
        program, _ = resolve_program(name)
        seed = subject_inputs(name)[0]
        assert run_system(program, seed, small).status.kind == "budget-exhausted"
        traced = run_with_tracing(program, seed,
                                  RunOptions(max_dump_bytes=SMALL_DUMP_BYTES))
        truncated += carve_with_stats(traced)[1].truncated
    assert truncated > 0


# ------------------------------------------------------- small programs

VALUES_SOURCE = """
record P { x: int, y: float }
record Q { x: int }

global base: int = 7;
global pair: P = P { x: base * 2, y: 0.5 };
global cells: ref int = alloc_array(4, base);

fn twice(v: int) -> int { return v + v; }

fn show_small(v: int) {
    if (v > 2 || v < -2) { return; }
    print(v);
}

fn fill(r: ref int, n: int) -> ref int {
    let i = 0;
    while (i < n) {
        r[i] = i * i - base;
        i = i + 1;
    }
    return slice(r, 1);
}

fn main() -> int {
    let k = parse_int(arg(0));
    let big = 9223372036854775807;
    let small = -big - 1;
    print(big + k);
    print(small - k);
    print(small * -1);
    print(small / -1);
    print(small % -1);
    print(-k / 2);
    print(-k % 2);
    print(k * 1000003 * 1000003 * 1000003);
    let f = 7.5;
    print(f / 2.0);
    print(f % 2.0);
    print(-f % 2.0);
    print(-f);
    print(!k);
    print(k < 3 && k > -3);
    print(k < 0 || twice(k) > 4);
    print(to_string(f * 1.0));
    print(concat(to_string(k), to_string(pair.y)));
    print(pair);
    print([1, 2, [k, k + 1]]);
    print(P { y: 1.0, x: k } == P { x: k, y: 1.0 });
    print(P { x: 1, y: 1.0 } == Q { x: 1 });
    print([k, 2] == [k, 2]);
    print(null == null);
    print(cells == cells);
    let r = fill(cells, len(cells));
    print(r);
    print(len(r));
    print(r[0] + r[2]);
    print(slice(r, 3) == slice(cells, 4));
    let t = "hello, world";
    print(slice(t, (k % 5 + 5) % 5, 5));
    print(byte_at(t, (k % 12 + 12) % 12));
    print(len(t) + arg_count());
    let acc = 0;
    let i = 0;
    while (i < k % 40) {
        if (i % 3 == 0) { acc = acc + twice(i); } else { acc = acc - 1; }
        i = i + 1;
    }
    print(acc);
    base = acc;
    print(twice(base));
    show_small(k);
    show_small(1);
    return k % 256;
}
"""

VALUES_ARGV = ["0", "1", "2", "-3", "13", "39", "-9223372036854775808",
               "9223372036854775807", "4611686018427387904"]

CRASH_SOURCE = """
record P { x: int }
record Q { y: int }

global g: int = 3;

fn id(v: int) -> int { return v; }
fn deep(n: int) -> int { return deep(n + 1); }
fn nested(a: ref int) -> int {
    let i = 0;
    while (i < 10) {
        a[i] = i;
        i = i + 1;
    }
    return 0;
}
fn field_y(p: Q) -> int { return p.y; }

fn main() -> int {
    let k = parse_int(arg(0));
    let a = alloc_array(3, 0);
    let arr = [1, 2];
    let zero = k - k;
    if (k == 0) { let x = id(1 / zero); }
    if (k == 1) { let x = id(id(5) % zero); }
    if (k == 2) { let x = 1.5 / 0.0; }
    if (k == 3) { let x = 1.5 % 0.0; }
    if (k == 4) { let x = a[3]; }
    if (k == 5) { let x = arr[-1]; }
    if (k == 6) { a[zero - 1] = 1; }
    if (k == 7) { let x = nested(a); }
    if (k == 8) { let x = byte_at("ab", 2); }
    if (k == 9) { let x = slice("ab", 1, 3); }
    if (k == 10) { let x = slice(a, 4); }
    if (k == 11) { let x = arg(5); }
    if (k == 12) { let x = alloc_array(-1, 0); }
    if (k == 13) { abort("stop here"); }
    if (k == 14) { abort(k); }
    if (k == 15) { let x = deep(0); }
    if (k == 16) { while ("s") { k = 0; } }
    if (k == 17) { if (1.0) { k = 0; } }
    if (k == 18) { let x = 1 && "s"; }
    if (k == 19) { let x = "s" || 1; }
    if (k == 20) { let x = 1 < 1.0; }
    if (k == 21) { let x = 1 == "1"; }
    if (k == 22) { let x = null.x; }
    if (k == 23) { let x = k.x; }
    if (k == 24) { let x = field_y(P { x: 1 }); }
    if (k == 25) { let n = null; let x = n[0]; }
    if (k == 26) { let x = a["0"]; }
    if (k == 27) { let n = null; n[0] = 1; }
    if (k == 28) { k[0] = 1; }
    if (k == 29) { let x = len(k); }
    if (k == 30) { let x = -"s"; }
    if (k == 31) { let x = !1.0; }
    if (k == 32) { let x = parse_int("1x"); }
    if (k == 33) { let x = to_string(null); }
    if (k == 34) { let x = concat("a", 1); }
    if (k == 35) { let x = 1 + 1.0; }
    if (k == 36) { let x = "a" * 2; }
    if (k == 37) { if (g > 100) { let late = 1; } print(late); }
    if (k == 38) { let x = [1] < [2]; }
    if (k == 39) { while (id(k) / (k - 39) > 0) { k = 0; } }
    if (k == 40) { while (k / zero > 0) { k = 0; } }
    if (k == 41) { let x = slice(a, "1"); }
    if (k == 42) { let x = slice("ab", 1); }
    if (k == 43) { let x = byte_at(1, 1); }
    return k;
}
"""

GLOBAL_INIT_CRASHES = [
    "global a: int = 1;\nglobal b: int = a / (a - 1);\nfn main() {}",
    "global a: ref int = alloc_array(2, 0);\nglobal b: int = a[2];\nfn main() {}",
]


def small_program_docs() -> dict[str, list]:
    values = parse(VALUES_SOURCE)
    crashes = parse(CRASH_SOURCE)
    crash_inputs = [mk_input((str(k).encode(),)) for k in range(45)]
    value_inputs = [mk_input((a.encode(),)) for a in VALUES_ARGV]
    docs = {"values": [], "crashes": []}
    for runner in (run_system, run_with_tracing):
        docs["values"] += run_docs(values, value_inputs, runner)
        docs["crashes"] += run_docs(crashes, crash_inputs, runner)
        docs["crashes"] += [serialize_run_result(runner(parse(src), mk_input()))
                            for src in GLOBAL_INIT_CRASHES]
    return docs


def budget_sweep_docs() -> list:
    """Runs cut short at every step limit up to where they end.

    The values program at each limit, the crash program at each of the
    last few limits before each crash, and each mini_dc carve (global
    stores, segment stores, allocation) at each unit limit, with the
    world it leaves.
    """
    docs = []
    values = parse(VALUES_SOURCE)
    value_input = mk_input((b"13",))
    full = run_system(values, value_input).steps
    for limit in range(1, full + 2):
        for runner in (run_system, run_with_tracing):
            docs.append(serialize_run_result(
                runner(values, value_input, RunOptions(step_limit=limit))))
    crashes = parse(CRASH_SOURCE)
    for k in range(45):
        s = mk_input((str(k).encode(),))
        end = run_system(crashes, s).steps
        for limit in range(max(1, end - 4), end + 1):
            docs.append(serialize_run_result(
                run_system(crashes, s, RunOptions(step_limit=limit))))
    program, _ = resolve_program("mini_dc")
    seed = subject_inputs("mini_dc")[0]
    for carved in carve_with_stats(run_with_tracing(program, seed))[0]:
        end = None
        limit = 1
        while end is None or limit <= end + 1:
            args, world = carved.context.world()
            r = call_function(program, carved.start[0], args, world,
                              RunOptions(step_limit=limit))
            if r.status.kind != "budget-exhausted" and end is None:
                end = r.steps
            docs.append({"result": serialize_run_result(r),
                         "world": encode_world(world)})
            limit += 1
    return docs


BUDGET_SWEEP_GOLDEN = (
    "f3eb9296335e89c5b0a1af0660c5a98fbc558d9a45b4390ca4a52836257a6abb")


def test_budget_sweep_matches_golden_digest():
    assert digest(budget_sweep_docs()) == BUDGET_SWEEP_GOLDEN


SMALL_PROGRAM_GOLDENS = {
    "values":
        "fdc1cd16011921027b687bc911fb999ed140afe0b21412ea489557799320b3b4",
    "crashes":
        "9eb22a09330416ceec6e2e0b2ad2acbca360702b45fc194b87197a7ef2512793",
}


def test_small_program_run_results_match_golden_digests():
    docs = small_program_docs()
    assert {k: digest(v) for k, v in docs.items()} == SMALL_PROGRAM_GOLDENS


def test_crash_program_hits_every_crash_kind():
    kinds = {d["status"]["crash_kind"] for d in small_program_docs()["crashes"]}
    assert kinds == {"oob", "div-zero", "abort", "type-error", None}
