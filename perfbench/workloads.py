"""The four benchmark workloads: tables, wide, clocked and fabric.

Every input is drawn from the workload's own ``random.Random(seed)``; the
program only receives ready-made ``TruthTable``/``FsmSpec``/``ConfigBitstream``
objects, or JSON files the benchmark wrote itself. A workload is an endless
stream of cycles. A cycle is a fixed list of op shapes (radix, arity,
strategy, fabric, machine) whose contents come from the seed, so the mix of
op costs in a run depends neither on the seed nor on where the run stops.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from mvlsynth import cli
from mvlsynth.oracle import check_equivalence, check_fsm_equivalence
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            compile_fsm, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from mvlsynth.values import Radix

# Gate kinds the simulator evaluates on every pass; ports, constants and
# storage are sources or sinks, not evaluations.
COMB_KINDS = frozenset({"tlg", "and", "or", "not", "switch", "nary_inverter"})


def comb_gates(nl) -> int:
    return sum(1 for g in nl.gates.values() if g.kind.value in COMB_KINDS)


class WrongAnswer(Exception):
    """An op's verdict differs from its known answer."""


def _table_doc(n: int, m: int, entries) -> str:
    return json.dumps({"version": "1", "kind": "truth_table", "radix": n,
                       "arity": m, "outputs": list(entries)})


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Seeded input stream plus the op that consumes it.

    ``cycle()`` draws the next cycle's inputs (untimed), ``op()`` is the
    timed call into the program, and ``judge()`` (untimed) compares the
    op's verdict with its known answer, raising WrongAnswer on a
    difference, and returns the op's gate-vector count. ``shape()`` names
    the op's cost class: ops of one shape cost the same up to the contents
    drawn for them.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.inputs = hashlib.sha256()
        self.warming = False

    def _record(self, *parts) -> None:
        self.inputs.update(repr(parts).encode())

    def setup(self) -> None:
        """Build reusable netlists, then run one untimed warm-up op drawn
        from a separate stream so the timed inputs do not depend on it."""
        main_rng, main_digest = self.rng, self.inputs
        self.rng, self.inputs = random.Random(~self.seed), hashlib.sha256()
        self.warming = True
        try:
            item = self.cycle()[0]
            self.judge(item, self.op(item))
        finally:
            self.rng, self.inputs = main_rng, main_digest
            self.warming = False

    def _entries(self, n: int, m: int) -> tuple[int, ...]:
        return tuple(self.rng.randrange(n) for _ in range(n**m))


class Tables(Workload):
    """Synthesize one small table, then check it exhaustively."""

    # Mostly radix 3 arity 2, as in the sweep over all 19683 such functions.
    # No 5^3: its three ops took 90% of a cycle's time, so they would have
    # decided this workload's figures instead of the small tables.
    SHAPES = [(3, 2)] * 6 + [(2, 1), (2, 3), (3, 3), (4, 2), (5, 2)]

    def __init__(self, seed: int, workdir: str, corrupt: bool = False):
        super().__init__(seed, workdir)
        self.corrupt = corrupt

    def cycle(self):
        items = []
        for strategy in Strategy:
            for n, m in self.SHAPES:
                entries = self._entries(n, m)
                self._record(n, m, strategy.value, entries)
                tt = TruthTable(Radix(n), m, entries)
                items.append((tt, strategy, tt))
        if self.corrupt and not self.warming:
            # The table checked differs in one entry from the one
            # synthesized, so the known answer PASS is wrong.
            tt, strategy, _ = items[0]
            bad = ((tt.entries[0] + 1) % tt.radix.n,) + tt.entries[1:]
            items[0] = (tt, strategy, TruthTable(tt.radix, tt.arity, bad))
            self.corrupt = False
        return items

    def shape(self, item):
        tt, strategy, _ = item
        return tt.radix.n, tt.arity, strategy.value

    def op(self, item):
        tt, strategy, check = item
        nl = synth_tables([tt], strategy)
        return nl, check_equivalence(nl, check)

    def judge(self, item, result):
        nl, report = result
        rows = len(item[0].entries)
        if not report.passed or report.total_vectors != rows:
            raise WrongAnswer(f"tables: expected {rows}/{rows} PASS, got "
                              f"{report.summary()}")
        return comb_gates(nl) * rows


class Wide(Workload):
    """In-process ``mvlsynth synth``, then ``mvlsynth verify``, on files.

    An op is one CLI command: each table is synthesized by one op and
    verified by the next. Both commands as one op took 18-27 ms, too long
    for many ops to run without the host interrupting them (README.md).
    """

    # Every strategy once, on the two widest tables that keep an op short.
    SHAPES = [(3, 4, Strategy.DECODER), (3, 4, Strategy.MUX_TREE),
              (4, 3, Strategy.MUX_FLAT)]

    def cycle(self):
        items = []
        for n, m, strategy in self.SHAPES:
            entries = self._entries(n, m)
            self._record(n, m, strategy.value, entries)
            stem = os.path.join(self.workdir, f"wide-{n}-{m}-{strategy.value}")
            with open(stem + ".table.json", "w", encoding="utf-8") as f:
                f.write(_table_doc(n, m, entries))
            for command in ("synth", "verify"):
                items.append((stem, command, strategy.value, n**m))
        return items

    def shape(self, item):
        return item[:2]

    def op(self, item):
        stem, command, strategy, _ = item
        table, netlist = stem + ".table.json", stem + ".nl.json"
        if command == "synth":
            return _cli(["synth", table, "-o", netlist, "--strategy", strategy])
        return _cli(["verify", netlist, table])

    def judge(self, item, result):
        stem, command, _, rows = item
        code, out, err = result
        if command == "synth":
            if code != 0:
                raise WrongAnswer(f"wide: synth exited {code}: {err.strip()!r}")
            return 0
        want = f"{rows}/{rows} vectors, PASS"
        if code != 0 or out.strip() != want:
            raise WrongAnswer(f"wide: expected {want!r}, got {result}")
        with open(stem + ".nl.json", encoding="utf-8") as f:
            gates = json.load(f)["gates"]
        return sum(1 for g in gates if g["gate"] in COMB_KINDS) * rows


class Clocked(Workload):
    """Clock a compiled state machine through its input sequence.

    Every machine has one seeded reset state and input sequence, run again
    in every cycle. With a fresh sequence per cycle, one machine's op cost
    moved by up to 2x with how often its state changed, so the shortest
    time of a machine's ops measured its luckiest draw, not the host.
    """

    # (radix, state digits, input digits, strategy, has output tables),
    # COPIES machines of each: a step's cost depends on how often the
    # state changes, so one machine per shape would make the seed matter.
    # An odd number of shapes keeps the median op off a boundary between
    # two shapes' costs.
    SHAPES = [
        (2, 1, 0, Strategy.DECODER, False),
        (2, 3, 1, Strategy.MUX_TREE, True),
        (3, 1, 1, Strategy.DECODER, True),
        (3, 2, 0, Strategy.MUX_TREE, False),
        (4, 1, 1, Strategy.MUX_TREE, False),
        (4, 2, 0, Strategy.DECODER, True),
        (3, 1, 2, Strategy.DECODER, False),
        (2, 2, 2, Strategy.MUX_TREE, False),
        (3, 1, 1, Strategy.MUX_TREE, True),
    ]
    COPIES = 8
    MACHINES = SHAPES * COPIES
    STEPS = 2  # short ops: see README.md, end-to-end metrics

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.specs, self.items = [], []
        for i, (n, sa, ia, strategy, has_output) in enumerate(self.MACHINES):
            def tables(count):
                return tuple(TruthTable(Radix(n), sa + ia, self._entries(n, sa + ia))
                             for _ in range(count))
            spec = FsmSpec(Radix(n), sa, ia, tables(sa),
                           tables(1) if has_output else None)
            reset = tuple(self.rng.randrange(n) for _ in range(sa))
            seq = tuple(tuple(self.rng.randrange(n) for _ in range(ia))
                        for _ in range(self.STEPS))
            self._record(n, sa, ia, strategy.value,
                         [t.entries for t in spec.transition + (spec.output or ())],
                         reset, seq)
            self.specs.append(spec)
            self.items.append((i, reset, seq))

    def setup(self):
        self.netlists = [compile_fsm(spec, shape[3])
                         for spec, shape in zip(self.specs, self.MACHINES)]
        super().setup()

    def cycle(self):
        return self.items

    def shape(self, item):
        return item[0]  # machines of one shape differ in cost; see SHAPES

    def op(self, item):
        i, reset, seq = item
        return check_fsm_equivalence(self.netlists[i], self.specs[i], reset, [seq])

    def judge(self, item, report):
        if not report.passed or report.total_vectors != self.STEPS:
            raise WrongAnswer(f"clocked machine {item[0]}: expected "
                              f"{self.STEPS} steps PASS, got {report.summary()}")
        return comb_gates(self.netlists[item[0]]) * self.STEPS


class Fabric(Workload):
    """Program a fabric from a table, then verify it and every one-bit flip."""

    SHAPES = [(3, 3), (4, 2), (5, 2)]

    def setup(self):
        self.fabrics = ([build_fabric_decoder(n, m) for n, m in self.SHAPES]
                        + [build_fabric_mux(n, m) for n, m in self.SHAPES])
        super().setup()

    @staticmethod
    def known_bits(kind: str, n: int, entries) -> tuple[int, ...]:
        """The bitstream a fabric of this kind needs to compute the table."""
        rows = len(entries)
        if kind == "decoder":
            return tuple(int(entries[i] == k) for k in range(n) for i in range(rows))
        return tuple(int(entries[k] == v) for k in range(rows) for v in range(n))

    def cycle(self):
        items = []
        for fi, fab in enumerate(self.fabrics):
            n, m = self.SHAPES[fi % len(self.SHAPES)]
            entries = self._entries(n, m)
            self._record(fab.fabric_kind, n, m, entries)
            tt = TruthTable(Radix(n), m, entries)
            bits = self.known_bits(fab.fabric_kind, n, entries)
            items.append((fi, tt, None, bits))
            for k in range(len(bits)):
                flipped = bits[:k] + (1 - bits[k],) + bits[k + 1:]
                items.append((fi, tt, ConfigBitstream(flipped), None))
        return items

    def shape(self, item):
        fi, _, flipped, _ = item
        return fi, flipped is None

    def op(self, item):
        fi, tt, config, _ = item
        if config is None:
            config = derive_config(tt, self.fabrics[fi])
        return config, check_equivalence(self.fabrics[fi], tt, config=config)

    def judge(self, item, result):
        fi, tt, flipped, want_bits = item
        config, report = result
        if flipped is None:
            if config.bits != want_bits or not report.passed:
                raise WrongAnswer(f"fabric {fi}: derived bitstream should "
                                  f"PASS, got {report.summary()}")
        elif report.passed:
            raise WrongAnswer(f"fabric {fi}: a one-bit flip passed")
        return comb_gates(self.fabrics[fi]) * report.total_vectors


WORKLOADS = {"tables": Tables, "wide": Wide, "clocked": Clocked, "fabric": Fabric}
