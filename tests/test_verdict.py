"""Differential test: check_equivalence's plane verdict against the decoding
path.

check_equivalence compares the output planes of one sweep with the planes
its wanted levels make, and decodes only the vectors that fail. The
reference here is eval_vectors over the same vectors, which decodes every
vector's output level, and a per-row compare of each result with (want,).
Both must give the same report and the same fault log, on exhaustive and
sampled checks, with and without a bitstream.
"""

import dataclasses
import random

import pytest

from mvlsynth import oracle, sim
from mvlsynth.oracle import (DEFAULT_CAP, DEFAULT_SEED, EquivalenceReport,
                             Mismatch, check_equivalence, random_table)
from mvlsynth.sim import Fault, FaultKind, SimState, _exhaustive, eval_vectors
from mvlsynth.synth import (Strategy, build_decoder_1, build_fabric_decoder,
                            build_fabric_mux, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, TruthTable
from test_sim_diff import _random_mesh

FABRICS = {
    "decoder": build_fabric_decoder,
    "mux-tree": lambda n, m: build_fabric_mux(n, m, tree=True),
    "mux-flat": lambda n, m: build_fabric_mux(n, m, tree=False),
}


def _decoded(nl, tt, config, cap):
    """The report and fault log of eval_vectors over the vectors
    check_equivalence draws, compared row by row."""
    n = tt.radix.n
    state = SimState(config=config)
    exhaustive = n**tt.arity <= cap
    if exhaustive:
        vectors, wants = _exhaustive(nl), tt.entries
    else:
        rng = random.Random(DEFAULT_SEED)
        vectors = sorted(tuple(rng.randrange(n) for _ in range(tt.arity))
                         for _ in range(cap))
        wants = [tt.lookup(vec) for vec in vectors]
    results = eval_vectors(nl, vectors, state)
    mismatches = [Mismatch(vec, (want,), got) for vec, want, got
                  in zip(vectors, wants, results) if got != (want,)]
    report = EquivalenceReport(len(vectors), tuple(mismatches), exhaustive,
                               None if exhaustive else DEFAULT_SEED)
    return report, state.faults


@pytest.fixture
def compare(monkeypatch):
    """compare(nl, tt, config, cap): check both ways, assert that the
    reports and fault logs agree, and return the report."""
    states = []

    def kept(**fields):
        states.append(SimState(**fields))
        return states[-1]

    monkeypatch.setattr(oracle, "SimState", kept)

    def run(nl, tt, config=None, cap=DEFAULT_CAP):
        states.clear()
        got = check_equivalence(nl, tt, config, cap=cap)
        want, faults = _decoded(nl, tt, config, cap)
        assert got == want
        assert states[0].faults == faults
        return got
    return run


def _edited(tt, rng, count=2):
    """tt with count entries moved to another level."""
    entries = list(tt.entries)
    for row in rng.sample(range(len(entries)), min(count, len(entries))):
        entries[row] = (entries[row] + rng.randrange(1, tt.radix.n)) % tt.radix.n
    return TruthTable(tt.radix, tt.arity, tuple(entries))


def _row(inputs, n):
    return sum(d * n**(len(inputs) - 1 - i) for i, d in enumerate(inputs))


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_tables(compare, strategy, n):
    rng = random.Random(n)
    for m in range(1, 5 if n < 4 else 3):
        tt = random_table(n, m, rng)
        nl = synth_tables([tt], strategy)
        for want in (tt, random_table(n, m, rng), _edited(tt, rng)):
            for cap in (DEFAULT_CAP, 5):  # exhaustive, then sampled
                compare(nl, want, cap=cap)
        assert compare(nl, tt).passed and compare(nl, tt, cap=5).passed


@pytest.mark.parametrize("kind", list(FABRICS))
def test_fabrics_under_every_kind_of_stream(compare, kind):
    rng = random.Random(33)
    kinds = set()
    for n, m in ((2, 3), (3, 2), (4, 2), (5, 2), (3, 3)):
        fab = FABRICS[kind](n, m)
        tt = random_table(n, m, rng)
        derived = derive_config(tt, fab)
        size = len(derived.bits)
        streams = [derived, ConfigBitstream((0,) * size)]
        streams += [derived.flipped(k) for k in range(size)]
        streams += [ConfigBitstream(tuple(rng.randrange(2) for _ in range(size)))
                    for _ in range(5)]
        cases = [(tt, stream) for stream in streams] + [(_edited(tt, rng), derived)]
        for want, stream in cases:
            for cap in (DEFAULT_CAP, n**m - 1):
                report = compare(fab, want, stream, cap)
                kinds.update(mm.got.kind if isinstance(mm.got, Fault) else "level"
                             for mm in report.mismatches)
    assert kinds == {FaultKind.CONTENTION, FaultKind.FLOATING_NET, "level"}


def test_one_output_switch_meshes(compare):
    # the tables take each clean row's level, where the table's radix can
    # carry it, so that some rows pass; a few are then edited
    rng = random.Random(41)
    meshes = faulted = 0
    while meshes < 60:
        nl = _random_mesh(rng)
        radixes = {nl.gates[gid].radix for gid in nl.inputs}
        if len(nl.outputs) != 1 or len(radixes) != 1 or None in radixes:
            continue
        n, m = radixes.pop(), len(nl.inputs)
        config = (ConfigBitstream(tuple(rng.randrange(2) for _ in nl.latch_order))
                  if nl.latch_order else None)
        results = eval_vectors(nl, _exhaustive(nl), SimState(config=config))
        entries = tuple(r[0] if type(r) is tuple and r[0] < n else rng.randrange(n)
                        for r in results)
        tt = _edited(TruthTable.make(n, m, entries), rng, 1)
        for cap in (DEFAULT_CAP, 3):
            compare(nl, tt, config, cap)
        faulted += any(isinstance(r, Fault) for r in results)
        meshes += 1
    assert faulted  # the meshes do reach the fault paths


def test_a_want_that_a_binary_output_cannot_carry_fails(compare):
    nl = dataclasses.replace(build_decoder_1(3), outputs=["b1"])
    report = compare(nl, TruthTable.make(3, 1, (0, 1, 2)))
    assert report.mismatches == (Mismatch((2,), (2,), (0,)),)


def test_a_check_decodes_only_its_clean_mismatches(monkeypatch):
    # eval_vectors' readers decode every vector; a check decodes one
    # vector's level per clean mismatch, by _level, and no other
    calls = []
    for name in ("_levels", "_results"):
        monkeypatch.setattr(sim, name, lambda *args, name=name: calls.append(name))
    decoded = []
    level = sim._level
    monkeypatch.setattr(sim, "_level", lambda *args: decoded.append(args[2])
                        or level(*args))
    tt = random_table(3, 3, random.Random(7))
    fab = build_fabric_mux(3, 3)
    bits = derive_config(tt, fab)
    for strategy in Strategy:
        nl = synth_tables([tt], strategy)
        for want, cap, wrong in ((tt, DEFAULT_CAP, 0), (tt, 5, 0),
                                 (_edited(tt, random.Random(1), 4), DEFAULT_CAP, 4)):
            decoded.clear()
            report = check_equivalence(nl, want, cap=cap)
            rows = [1 << _row(mm.inputs, 3) for mm in report.mismatches]
            assert len(rows) == wrong and decoded == rows
    for stream, cap, passed in ((bits, DEFAULT_CAP, True), (bits, 5, True),
                                (bits.flipped(0), DEFAULT_CAP, False)):
        decoded.clear()
        report = check_equivalence(fab, tt, stream, cap=cap)
        assert report.passed is passed and not decoded
    assert calls == []


@pytest.mark.parametrize("kind", list(FABRICS))
@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (4, 2), (5, 2), (3, 3)])
def test_each_flip_fails_on_its_own_rows(kind, n, m):
    # a decoder fabric's bit k drives row k % n**m's constant of level
    # k // n**m; a mux fabric's bit k switches level k % n onto row k // n
    tt = random_table(n, m, random.Random(n * m))
    fab = FABRICS[kind](n, m)
    bits = derive_config(tt, fab)
    rows = n**m
    for k, bit in enumerate(bits.bits):
        report = check_equivalence(fab, tt, bits.flipped(k))
        got = [(_row(mm.inputs, n), mm.got.kind) for mm in report.mismatches]
        fault = FaultKind.FLOATING_NET if bit else FaultKind.CONTENTION
        if kind == "decoder":
            assert got == [(k % rows, fault)], k
        elif bit:
            assert got == [(k // n, fault)], k
        else:
            assert got == [(row, fault) for row in range(rows)], k
