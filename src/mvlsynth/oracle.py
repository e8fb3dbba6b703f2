"""Brute-force references and equivalence checking.

Nothing here looks inside a netlist: tables are evaluated by lookup,
machines by software iteration, and netlists only through the simulator.
Exhaustive sweeps are used whenever the input space fits under a cap;
otherwise seeded random sampling with the seed recorded in the report.
A combinational verdict compares the sweep's output planes with the planes
of the wanted levels, and decodes only the vectors that fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .netlist import Netlist
from .sim import Fault, SimFaultError, SimState, _compiled, _exhaustive, \
    _misses, _Stepper, _sweep, reset_state
from .tables import ConfigBitstream, FsmSpec, TruthTable, _check_arity
from .values import RadixLike, as_radix

DEFAULT_CAP = 6561  # 3^8: largest space still swept exhaustively
DEFAULT_SEED = 20240917


@dataclass(frozen=True)
class Mismatch:
    inputs: tuple
    expected: tuple[int, ...]
    got: Union[tuple[int, ...], Fault]

    def __init__(self, inputs: tuple, expected: tuple[int, ...],
                 got: Union[tuple[int, ...], Fault]):
        # as Fault's: one dict fill, not a frozen setattr per field
        d = self.__dict__
        d["inputs"], d["expected"], d["got"] = inputs, expected, got

    def describe(self) -> str:
        got = self.got.describe() if isinstance(self.got, Fault) else self.got
        return f"inputs {self.inputs}: expected {self.expected}, got {got}"


@dataclass(frozen=True)
class EquivalenceReport:
    total_vectors: int
    mismatches: tuple[Mismatch, ...]
    exhaustive: bool = True
    seed: Optional[int] = None

    def __init__(self, total_vectors: int, mismatches: tuple[Mismatch, ...],
                 exhaustive: bool = True, seed: Optional[int] = None):
        d = self.__dict__
        d["total_vectors"], d["mismatches"] = total_vectors, mismatches
        d["exhaustive"], d["seed"] = exhaustive, seed

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        ok = self.total_vectors - len(self.mismatches)
        verdict = "PASS" if self.passed else "FAIL"
        mode = "" if self.exhaustive else f" (sampled, seed {self.seed})"
        return f"{ok}/{self.total_vectors} vectors, {verdict}{mode}"


def oracle_eval(tt: TruthTable, inputs: Sequence[int]) -> int:
    """Pure table lookup; the ground truth for every combinational check.

    An alias of TruthTable.lookup, kept while perfbench/spans.py wraps it
    by name.
    """
    return tt.lookup(inputs)


def check_equivalence(nl: Netlist, tt: TruthTable,
                      config: Optional[ConfigBitstream] = None,
                      cap: int = DEFAULT_CAP,
                      seed: int = DEFAULT_SEED) -> EquivalenceReport:
    """Compare a single-output netlist against a table on its full domain.

    The input radixes are read off the compiled program, so a netlist
    that validate refuses raises its NetlistError before they are checked.
    A configuration bitstream is required exactly when the netlist has
    configuration latches; the sweep checks it as load_config does.
    A space over cap vectors is sampled from random.Random(seed), so the
    seed must be an int: the report records it. Simulator faults count as
    mismatches. The verdict compares the output planes of one sweep with
    the wanted levels' planes, and only failing vectors are decoded.
    """
    n = tt.radix.n
    if type(cap) is not int:  # a bool is no cap
        raise ValueError(f"exhaustive cap {cap!r} is not an integer")
    if cap < 1:
        raise ValueError(f"exhaustive cap must be at least 1, got {cap}")
    if type(seed) is not int:  # None would draw from OS entropy
        raise ValueError(f"seed {seed!r} is not an integer")
    if nl.clock is not None or nl.state_latches:
        raise ValueError("equivalence sweep needs a combinational netlist")
    if len(nl.outputs) != 1:
        raise ValueError("netlist must have exactly one output")
    inputs = _compiled(nl).radixes[0]
    if inputs != (n,) * tt.arity:
        raise ValueError(
            f"netlist inputs {list(inputs)} do not match a radix-{n} "
            f"arity-{tt.arity} table")
    if bool(nl.latch_order) != (config is not None):
        if config is None:
            raise ValueError("netlist has configuration latches; config required")
        raise ValueError("config given for a netlist without latches")

    state = SimState(config=config)
    exhaustive = n**tt.arity <= cap
    if exhaustive:
        # every row in row order (MS-first digits): vector k is row k; the
        # program keeps them across bitstreams, and its sweep of them under
        # the last one
        vectors = _exhaustive(nl)
        wants = tt.entries
    else:
        # MS-first digit tuples sort in row order, so the mismatches come
        # out sorted as in the exhaustive sweep
        rng = random.Random(seed)
        vectors = sorted(tuple(rng.randrange(n) for _ in range(tt.arity))
                         for _ in range(cap))
        wants = [tt.lookup(vec) for vec in vectors]
    mismatches = tuple([Mismatch(vectors[b], (wants[b],), got)
                        for b, got in _sweep(nl, vectors, state, _misses, wants)])
    return EquivalenceReport(len(vectors), mismatches, exhaustive,
                             None if exhaustive else seed)


def reference_half_adder(radix: RadixLike) -> tuple[TruthTable, TruthTable]:
    """Arithmetic ground truth: digit sum modulo N and its carry-out."""
    r = as_radix(radix)
    n = r.n
    sum_tt = TruthTable.from_function(r, 2, lambda a, b: (a + b) % n)
    carry_tt = TruthTable.from_function(r, 2, lambda a, b: int(a + b >= n))
    return sum_tt, carry_tt


def check_fsm_equivalence(nl: Netlist, spec: FsmSpec, reset: Sequence[int],
                          input_seqs: Sequence[Sequence[Sequence[int]]],
                          ) -> EquivalenceReport:
    """Drive the compiled machine through each input sequence and compare
    every step's outputs against software iteration of the tables.

    The port and state radixes are read off the compiled program, and the
    reset digits checked by one reset_state, once per call. Each sequence
    runs on one stepper over its own copy of that reset, as
    step_sequential would step it: the first step loads every source, and
    each later one reloads only the input planes. A mismatch records the
    sequence consumed up to and including the failing step; a fault
    abandons the rest of that sequence.
    """
    expected_outs = (spec.state_arity if spec.output is None
                     else len(spec.output))
    if len(nl.inputs) != spec.input_arity or len(nl.outputs) != expected_outs:
        raise ValueError("netlist ports do not match the machine spec")
    n = spec.radix.n
    # the clock may take any radix
    inputs, states, _ = _compiled(nl).radixes
    for gid, r in zip(nl.inputs + nl.state_latches, inputs + states):
        if r != n:
            raise ValueError(f"{gid} has radix {r}, not the machine radix {n}")
    reset_latches = reset_state(nl, reset).latches

    total = 0
    mismatches = []
    for seq in input_seqs:
        stepper = _Stepper(nl, SimState(latches=dict(reset_latches)))
        soft = tuple(reset)
        for t, ins in enumerate(seq):
            ins = tuple(ins)
            total += 1
            soft = spec.step(soft, ins)
            expected = spec.observe(soft, ins)
            try:
                got = stepper.step(ins)
            except SimFaultError as e:
                got = e.fault
            if got != expected:
                trace = tuple(tuple(s) for s in seq[:t + 1])
                mismatches.append(Mismatch(trace, expected, got))
                if isinstance(got, Fault):
                    break
    return EquivalenceReport(total, tuple(mismatches))


def random_table(radix: RadixLike, arity: int,
                 rng: Optional[random.Random] = None) -> TruthTable:
    """Uniformly random truth table; pass a seeded Random for reproducibility."""
    r = as_radix(radix)
    _check_arity(arity)
    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    entries = [rng.randrange(r.n) for _ in range(r.n**arity)]
    return TruthTable(r, arity, tuple(entries))
