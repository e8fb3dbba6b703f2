"""Command-line surface: synthesize, configure, verify, and simulate.

Exit codes: 0 success (verification passed), 1 verification failure or
runtime fault, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

from . import fileio
from .oracle import DEFAULT_CAP, DEFAULT_SEED, check_equivalence
from .sim import SimFaultError, SimState, eval_combinational, load_config, \
    reset_state, step_sequential
from .synth import Strategy, build_fabric_decoder, build_fabric_mux, \
    compile_fsm, derive_config, gate_stats, synth_tables
from .tables import ConfigBitstream


def _parse_digits(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated digits, got {text!r}")


# -- commands -----------------------------------------------------------------


def _cmd_synth(args) -> int:
    tt, _name = fileio.load_table(args.table)
    nl = synth_tables([tt], Strategy(args.strategy))
    fileio.save_netlist(args.output, nl)
    for line in gate_stats(nl).lines():
        print(line)
    return 0


# The most configuration latches a fabric may have; it has radix^(arity+1).
_MAX_LATCHES = 2 ** 16


def _cmd_fabric(args) -> int:
    n, m = args.radix, args.arity
    # compared as logarithms, since the power grows with the arity; a radix
    # below 2 or an arity below 1 is left for the builder to refuse
    if n >= 2 and m >= 1 and (m + 1) * math.log2(n) > math.log2(_MAX_LATCHES):
        raise ValueError(
            f"--radix {n} --arity {m} needs {n}^{m + 1} configuration latches, "
            f"over the limit of {_MAX_LATCHES}")
    strategy = Strategy(args.strategy)
    if strategy is Strategy.DECODER:
        nl = build_fabric_decoder(args.radix, args.arity)
    else:
        nl = build_fabric_mux(args.radix, args.arity, tree=strategy is Strategy.MUX_TREE)
    fileio.save_netlist(args.output, nl)
    print(f"{nl.fabric_kind} fabric: {len(nl.latch_order)} configuration latches")
    print(f"fingerprint {fileio.fingerprint(nl)}")
    return 0


def _cmd_configure(args) -> int:
    nl = fileio.load_netlist(args.fabric)
    tt, _name = fileio.load_table(args.table)
    bits = derive_config(tt, nl)
    bits = ConfigBitstream(bits.bits, fileio.fingerprint(nl))
    fileio.save_bitstream(args.output, bits)
    print(f"{len(bits.bits)} bits written")
    return 0


def _cmd_verify(args) -> int:
    nl = fileio.load_netlist(args.netlist)
    tt, _name = fileio.load_table(args.table)
    config = None
    if args.bitstream is not None:
        config = fileio.load_bitstream(args.bitstream)
    report = check_equivalence(nl, tt, config,
                               cap=args.exhaustive_cap, seed=args.seed)
    print(report.summary())
    for mm in report.mismatches:
        print(f"  {mm.describe()}")
    return 0 if report.passed else 1


def _cmd_fsm(args) -> int:
    spec = fileio.load_fsm(args.spec)
    nl = compile_fsm(spec, Strategy(args.strategy))
    fileio.save_netlist(args.output, nl)
    for line in gate_stats(nl).lines():
        print(line)
    return 0


def _cmd_sim(args) -> int:
    nl = fileio.load_netlist(args.netlist)
    state = SimState()
    if nl.latch_order:
        if args.bitstream is None:
            raise ValueError(
                "netlist has configuration latches; provide --bitstream")
        load_config(nl, fileio.load_bitstream(args.bitstream), state)
    elif args.bitstream is not None:
        raise ValueError("--bitstream given but the netlist has no latches")

    sequential = nl.clock is not None or bool(nl.state_latches)
    if sequential:
        if args.reset is None:
            raise ValueError("sequential netlist requires --reset")
        reset_state(nl, _parse_digits(args.reset, "--reset"), state)
    elif args.reset is not None:
        raise ValueError("--reset given but the netlist holds no state")

    if args.steps is not None and args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if nl.inputs:
        if args.steps is not None:
            raise ValueError("--steps applies only to netlists without inputs")
        if not args.vectors:
            raise ValueError("no input vectors given")
        vectors = [_parse_digits(v, "vector") for v in args.vectors]
    elif args.vectors:
        raise ValueError("the netlist has no inputs, so it takes no vectors; "
                         "give --steps to clock it")
    else:  # one step at a time: any count runs in constant memory
        vectors = (() for _ in range(1 if args.steps is None else args.steps))

    for vec in vectors:
        try:
            if nl.clock is not None:
                out, state = step_sequential(nl, vec, state)
            else:
                out, state = eval_combinational(nl, vec, state)
        except SimFaultError as e:
            print(f"fault: {e.fault.describe()}")
            return 1
        print(" ".join(str(v) for v in out))
    return 0


def _cmd_stats(args) -> int:
    nl = fileio.load_netlist(args.netlist)
    for line in gate_stats(nl).lines():
        print(line)
    return 0


def _cmd_export_dot(args) -> int:
    nl = fileio.load_netlist(args.netlist)
    text = fileio.export_dot(nl)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


# -- parser -------------------------------------------------------------------


def _add_strategy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default="decoder", help="realization style")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlsynth",
        description="Radix-N logic synthesis, simulation, and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="truth table file to netlist file")
    p.add_argument("table")
    p.add_argument("-o", "--output", required=True)
    _add_strategy(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("fabric", help="emit a reconfigurable fabric")
    p.add_argument("--radix", type=int, required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    _add_strategy(p)
    p.set_defaults(fn=_cmd_fabric)

    p = sub.add_parser("configure", help="derive a fabric bitstream for a table")
    p.add_argument("fabric")
    p.add_argument("table")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_configure)

    p = sub.add_parser("verify", help="check a netlist against a truth table")
    p.add_argument("netlist")
    p.add_argument("table")
    p.add_argument("--bitstream")
    p.add_argument("--exhaustive-cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fsm", help="compile a state machine spec to a netlist")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    _add_strategy(p)
    p.set_defaults(fn=_cmd_fsm)

    p = sub.add_parser("sim", help="evaluate vectors or clock steps")
    p.add_argument("netlist")
    p.add_argument("vectors", nargs="*",
                   help="input vectors as comma-separated digits, MS-first")
    p.add_argument("--bitstream")
    p.add_argument("--reset", help="reset digits for sequential netlists")
    p.add_argument("--steps", type=int,
                   help="step count for netlists without inputs")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("stats", help="print per-kind gate counts")
    p.add_argument("netlist")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("export-dot", help="write a graph rendering")
    p.add_argument("netlist")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and not at import.

    Building one costs a millisecond or more (argparse looks up a
    translation for every help string); parsing leaves it unchanged.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:  # FileFormatError and NetlistError too
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
