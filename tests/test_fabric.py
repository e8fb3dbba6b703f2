"""Reconfigurable fabrics and bitstream derivation."""

import pytest

from mvlsynth.oracle import check_equivalence, reference_half_adder
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState,
                          eval_combinational, eval_vectors, load_config)
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            derive_config, gate_stats, synth_tables)
from mvlsynth.tables import ConfigBitstream, TruthTable

SUM3 = (0, 1, 2, 1, 2, 0, 2, 0, 1)
CARRY3 = (0, 0, 0, 0, 0, 1, 0, 1, 1)


@pytest.mark.parametrize("build", [build_fabric_decoder, build_fabric_mux])
@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_latch_count_is_radix_to_m_plus_1(build, n, m):
    nl = build(n, m)
    assert len(nl.latch_order) == n ** (m + 1)
    assert gate_stats(nl).latch_count == n ** (m + 1)


def test_decoder_fabric_latch_addressing():
    nl = build_fabric_decoder(3, 2)
    assert nl.latch_order == [f"lvl{k}/d{i}" for k in range(3) for i in range(9)]
    assert nl.fabric_kind == "decoder"


def test_mux_fabric_latch_addressing():
    nl = build_fabric_mux(3, 2)
    assert nl.latch_order == [f"selb{k}/d{v}" for k in range(9) for v in range(3)]
    assert nl.fabric_kind == "mux"


def test_decoder_fabric_bits_for_digit_sum():
    bits = derive_config(TruthTable.make(3, 2, SUM3), "decoder")
    rows = [bits.bits[k * 9:(k + 1) * 9] for k in range(3)]
    assert rows[0] == (1, 0, 0, 0, 0, 1, 0, 1, 0)   # level 0 at rows 0, 5, 7
    assert rows[1] == (0, 1, 0, 1, 0, 0, 0, 0, 1)   # level 1 at rows 1, 3, 8
    assert rows[2] == (0, 0, 1, 0, 1, 0, 1, 0, 0)   # level 2 at rows 2, 4, 6
    # each decode line asserts exactly one level
    for i in range(9):
        assert sum(rows[k][i] for k in range(3)) == 1


def test_mux_fabric_bits_for_digit_sum():
    bits = derive_config(TruthTable.make(3, 2, SUM3), "mux")
    blocks = [bits.bits[k * 3:(k + 1) * 3] for k in range(9)]
    assert blocks[5] == (1, 0, 0)                    # row 5 selects level 0
    for k, block in enumerate(blocks):
        assert sum(block) == 1
        assert block.index(1) == SUM3[k]


def test_mux_fabric_bits_for_constant_two():
    bits = derive_config(TruthTable.make(3, 2, (2,) * 9), "mux")
    assert bits.bits == (0, 0, 1) * 9


@pytest.mark.parametrize("build", [build_fabric_decoder, build_fabric_mux])
def test_fabric_computes_and_recomputes(build):
    # same instance, two successive configurations
    nl = build(3, 2)
    sum_tt = TruthTable.make(3, 2, SUM3)
    carry_tt = TruthTable.make(3, 2, CARRY3)
    first = check_equivalence(nl, sum_tt, derive_config(sum_tt, nl))
    assert first.passed and first.total_vectors == 9
    second = check_equivalence(nl, carry_tt, derive_config(carry_tt, nl))
    assert second.passed


def test_flat_selector_fabric():
    nl = build_fabric_mux(3, 2, tree=False)
    sum_tt = TruthTable.make(3, 2, SUM3)
    assert check_equivalence(nl, sum_tt, derive_config(sum_tt, nl)).passed


def test_all_zero_bits_float_the_output():
    nl = build_fabric_decoder(3, 2)
    state = load_config(nl, ConfigBitstream((0,) * 27))
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [1, 2], state)
    assert err.value.fault.kind is FaultKind.FLOATING_NET


def test_unconfigured_fabric_is_an_uninitialized_latch_fault():
    # an unprogrammed configuration latch holds no value, not 0
    nl = build_fabric_decoder(3, 2)
    state = SimState()
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [0, 0], state)
    fault = err.value.fault
    assert fault == Fault(FaultKind.UNINITIALIZED_LATCH, nl.latch_order[0])
    assert state.faults == [fault]


def test_first_unprogrammed_latch_in_latch_order_is_named():
    nl = build_fabric_mux(3, 1)
    state = load_config(nl, derive_config(TruthTable.make(3, 1, (2, 0, 1)), nl))
    for gid in (nl.latch_order[5], nl.latch_order[2]):
        del state.config[gid]
    with pytest.raises(SimFaultError) as err:
        eval_vectors(nl, [(0,), (1,)], state)
    assert err.value.fault == Fault(FaultKind.UNINITIALIZED_LATCH,
                                    nl.latch_order[2])
    assert state.faults == [err.value.fault]


def test_selection_block_one_hot_drives_constant():
    nl = build_fabric_mux(3, 1)
    tt = TruthTable.make(3, 1, (2, 2, 2))
    state = load_config(nl, derive_config(tt, nl))
    for x in range(3):
        out, _ = eval_combinational(nl, [x], state)
        assert out == (2,)


def test_derive_config_dimension_checks():
    fab = build_fabric_decoder(3, 2)
    with pytest.raises(ValueError):
        derive_config(TruthTable.make(4, 2, (0,) * 16), fab)
    with pytest.raises(ValueError):
        derive_config(TruthTable.make(3, 1, (0, 1, 2)), fab)
    with pytest.raises(ValueError):
        derive_config(TruthTable.make(3, 2, SUM3), "neither")
    # same latch count but wrong shape: radix-4 arity-1 vs radix-2 arity-3
    fab2 = build_fabric_mux(2, 3)
    assert len(fab2.latch_order) == 16
    with pytest.raises(ValueError):
        derive_config(TruthTable.make(4, 1, (0, 1, 2, 3)), fab2)


def test_derive_config_rejects_non_fabric():
    plain = synth_tables([TruthTable.make(3, 2, SUM3)], Strategy.DECODER)
    with pytest.raises(ValueError):
        derive_config(TruthTable.make(3, 2, SUM3), plain)


def test_fabric_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_fabric_decoder(3, 0)
    with pytest.raises(ValueError):
        build_fabric_mux(1, 2)
