"""Radix-N logic synthesis onto threshold-logic-gate netlists, with a
levelized simulator, brute-force equivalence checking, reconfigurable
fabrics, and sequential-machine compilation."""

from .values import MvValue, Radix, as_radix, nary_invert, tt_digits, tt_index
from .tables import ConfigBitstream, FsmSpec, TruthTable
from .netlist import (Gate, GateType, Netlist, NetlistBuilder, NetlistError,
                      validate)
from .sim import (Fault, FaultKind, SimFaultError, SimState,
                  eval_combinational, eval_vectors, load_config, reset_state,
                  step_sequential)
from .synth import (GateStats, Strategy, build_decoder_1, build_decoder_m,
                    build_fabric_decoder, build_fabric_mux, build_mux_1,
                    build_mux_m, build_nary_dff, build_nary_dlatch,
                    compile_fsm, derive_config, gate_stats, mux_block_count,
                    synth_decoder_based, synth_mux_based, synth_tables)
from .oracle import (EquivalenceReport, Mismatch, check_equivalence,
                     check_fsm_equivalence, oracle_eval, random_table,
                     reference_half_adder)
from . import fileio

__all__ = [
    "MvValue", "Radix", "as_radix", "nary_invert", "tt_digits", "tt_index",
    "ConfigBitstream", "FsmSpec", "TruthTable",
    "Gate", "GateType", "Netlist", "NetlistBuilder", "NetlistError",
    "validate",
    "Fault", "FaultKind", "SimFaultError", "SimState", "eval_combinational",
    "eval_vectors", "load_config", "reset_state", "step_sequential",
    "GateStats", "Strategy", "build_decoder_1", "build_decoder_m",
    "build_fabric_decoder", "build_fabric_mux", "build_mux_1", "build_mux_m",
    "build_nary_dff", "build_nary_dlatch", "compile_fsm", "derive_config",
    "gate_stats", "mux_block_count", "synth_decoder_based", "synth_mux_based",
    "synth_tables",
    "EquivalenceReport", "Mismatch", "check_equivalence",
    "check_fsm_equivalence", "oracle_eval", "random_table",
    "reference_half_adder",
    "fileio",
]
