"""System-level mutation fuzzer tests.

The robustness sweep doubles as the VM totality oracle: whatever the
mutators emit, the interpreter must come back with a defined status.
"""

import pytest

from carvelift.inputs import SystemInput
from carvelift.rng import Rng
from carvelift.sysgen import (
    EmptySeedSet, MUTATORS, _int_perturb, generate_batch, mutate_input,
    read_corpus, read_input_file, write_corpus, write_input_file,
)
from carvelift.vm.interp import RunOptions, run_system

from conftest import load_subject, mk_input


# ------------------------------------------------------------ rng plumbing

def test_split_streams_are_consumption_independent():
    p1 = Rng(9)
    a1 = p1.split()
    b1 = p1.split()

    p2 = Rng(9)
    a2 = p2.split()
    for _ in range(50):
        a2.next_u64()
    b2 = p2.split()

    assert [b1.next_u64() for _ in range(20)] == [b2.next_u64() for _ in range(20)]
    assert a1.next_u64() == Rng(9).split().next_u64()


def test_same_seed_same_stream():
    xs = [Rng(0xB45).next_u64() for _ in range(8)]
    ys = [Rng(0xB45).next_u64() for _ in range(8)]
    assert xs == ys


# ------------------------------------------------------------ mutators

def test_registry_has_the_documented_operator_palette():
    # In order: mutate_input picks an operator by its position.
    assert [m.__name__ for m in MUTATORS] == [
        "bit_flip", "_byte_set", "_byte_insert", "_byte_delete",
        "_byte_duplicate", "_chunk_swap", "_chunk_repeat", "_int_perturb",
        "_line_delete", "_line_duplicate", "_line_shuffle", "_truncate",
        "_append_ascii",
    ]


@pytest.mark.parametrize("size", [0, 1, 2, 17, 1024, 1 << 20])
def test_mutators_are_total(size):
    rng = Rng(size + 3)
    data = bytes((i * 7 + 13) & 0xFF for i in range(size))
    for m in MUTATORS:
        out = m(data, rng)
        assert isinstance(out, bytes)
        # paranoia bound: one operator application stays within 4x + 16
        assert len(out) <= 4 * size + 16


def test_every_mutator_drawn_within_10k_choices():
    rng = Rng(1)
    drawn = set()
    for _ in range(10_000):
        drawn.add(rng.choice(MUTATORS))
        if len(drawn) == len(MUTATORS):
            break
    assert drawn == set(MUTATORS)


def test_int_perturb_rewrites_a_decimal_run():
    seen = set()
    for i in range(200):
        seen.add(_int_perturb(b"v=100;", Rng(i)))
    # the run must change while the scaffold survives
    assert b"v=101;" in seen and b"v=99;" in seen
    assert all(out.startswith(b"v=") and out.endswith(b";") for out in seen)


def test_int_perturb_is_exact_on_runs_of_any_length():
    # Short runs, leading zeros and zero included: plain int arithmetic.
    for run in (b"0", b"007", b"15", b"9" * 40):
        outs = {_int_perturb(b"v=" + run, Rng(i)) for i in range(60)}
        values = [int(run) + d for d in (1, -1, 16, -16)] + [-int(run)]
        assert outs == {b"v=%d" % v for v in values}
    # 5,000 digits, past CPython's default int-from-string limit.
    sevens = b"7" * 5000
    outs = {_int_perturb(b"x" + sevens, Rng(i)) for i in range(60)}
    assert outs == {b"x" + sevens[:-1] + b"8", b"x" + sevens[:-1] + b"6",
                    b"x" + sevens[:-2] + b"93", b"x" + sevens[:-2] + b"61",
                    b"x-" + sevens}


# ------------------------------------------------------------ mutate_input

def test_empty_seed_still_mutates():
    out = mutate_input(SystemInput(), Rng(4))
    assert isinstance(out, SystemInput)
    assert out.argv == ()


def test_mutation_is_deterministic():
    seed = mk_input((b"alpha", b"beta"), b"1 2 +\n")
    a = [mutate_input(seed, Rng(0xB45)) for _ in range(30)]
    b = [mutate_input(seed, Rng(0xB45)) for _ in range(30)]
    assert a == b


def test_mutation_touches_at_most_one_element():
    seed = mk_input((b"alpha", b"beta"), b"gamma delta\n")
    rng = Rng(77)
    for _ in range(500):
        out = mutate_input(seed, rng)
        before = seed.elements()
        after = out.elements()
        assert len(before) == len(after)
        changed = sum(1 for x, y in zip(before, after) if x != y)
        assert changed <= 1


def test_generate_batch_counts_and_determinism():
    seeds = [mk_input((b"a",)), mk_input((), b"x\n"), mk_input((b"b", b"c"))]
    batch = generate_batch(seeds, 10, Rng(5))
    assert len(batch) == 30
    assert batch == generate_batch(seeds, 10, Rng(5))
    assert len(generate_batch(seeds[:1], 10, Rng(5))) == 10
    with pytest.raises(EmptySeedSet):
        generate_batch([], 10, Rng(5))
    with pytest.raises(ValueError):
        generate_batch(seeds, 0, Rng(5))


def test_vm_survives_10k_mutants():
    prog = load_subject("mini_dc")
    seed = mk_input((), b"1 2 +")
    rng = Rng(0xB45)
    opts = RunOptions(step_limit=200_000)
    statuses = set()
    for _ in range(10_000):
        mutant = mutate_input(seed, rng)
        r = run_system(prog, mutant, opts)
        statuses.add(r.status.kind)
        assert r.status.kind in ("exit", "crash", "budget-exhausted")
    # the sweep should at least exercise normal exits
    assert "exit" in statuses


# ------------------------------------------------------------ corpus files

def test_corpus_round_trip(tmp_path):
    inputs = [
        mk_input((b"admin", b"open\nsesame"), b"line1\nline2\n"),
        mk_input((), b""),
        mk_input((b"\x00\xff\x80",), b"\xfe\x00raw\nbytes"),
    ]
    corpus = tmp_path / "corpus"
    paths = write_corpus(corpus, inputs)
    assert [p.name for p in paths] == ["000.input", "001.input", "002.input"]
    assert read_corpus(corpus) == inputs


def test_corpus_past_a_thousand_inputs_keeps_its_order(tmp_path):
    # 1000.input would sort before 101.input; every name is padded to 4.
    inputs = [mk_input((str(i).encode(),)) for i in range(1001)]
    paths = write_corpus(tmp_path, inputs)
    assert [p.name for p in paths[::500]] == ["0000.input", "0500.input",
                                              "1000.input"]
    assert read_corpus(tmp_path) == inputs


def test_single_input_file_round_trip(tmp_path):
    s = mk_input((b"one",), b"stdin\nwith\nnewlines")
    path = tmp_path / "t.input"
    write_input_file(path, s)
    assert read_input_file(path) == s


def test_read_corpus_on_empty_directory(tmp_path):
    assert read_corpus(tmp_path) == []
