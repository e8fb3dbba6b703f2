"""Reconfigurable fabrics and bitstream derivation."""

import re

import pytest

from mvlsynth import sim
from mvlsynth.fileio import fingerprint
from mvlsynth.netlist import validate
from mvlsynth.oracle import check_equivalence, reference_half_adder
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState,
                          eval_combinational, eval_vectors, load_config)
from mvlsynth.synth import (Strategy, build_decoder_m, build_fabric_decoder,
                            build_fabric_mux, build_mux_m, derive_config,
                            gate_stats, synth_tables)
from mvlsynth.tables import ConfigBitstream, TruthTable
from test_sim import _contention_netlist, _count_sweeps

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
    bits = derive_config(TruthTable.make(3, 2, SUM3), build_fabric_decoder(3, 2))
    rows = [bits.bits[k * 9:(k + 1) * 9] for k in range(3)]
    assert rows[0] == (1, 0, 0, 0, 0, 1, 0, 1, 0)   # level 0 at rows 0, 5, 7
    assert rows[1] == (0, 1, 0, 1, 0, 0, 0, 0, 1)   # level 1 at rows 1, 3, 8
    assert rows[2] == (0, 0, 1, 0, 1, 0, 1, 0, 0)   # level 2 at rows 2, 4, 6
    # each decode line asserts exactly one level
    for i in range(9):
        assert sum(rows[k][i] for k in range(3)) == 1


def test_mux_fabric_bits_for_digit_sum():
    bits = derive_config(TruthTable.make(3, 2, SUM3), build_fabric_mux(3, 2))
    blocks = [bits.bits[k * 3:(k + 1) * 3] for k in range(9)]
    assert blocks[5] == (1, 0, 0)                    # row 5 selects level 0
    for k, block in enumerate(blocks):
        assert sum(block) == 1
        assert block.index(1) == SUM3[k]


def test_mux_fabric_bits_for_constant_two():
    bits = derive_config(TruthTable.make(3, 2, (2,) * 9), build_fabric_mux(3, 2))
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


def test_a_stream_for_another_fabric_is_refused():
    # same latch count, the decoder fabric's addressing: without the check
    # the mux fabric runs it and reads 3/9 vectors, FAIL
    dec, mux = build_fabric_decoder(3, 2), build_fabric_mux(3, 2)
    sum_tt = TruthTable.make(3, 2, SUM3)
    stream = ConfigBitstream(derive_config(sum_tt, dec).bits, fingerprint(dec))
    for load in (lambda: load_config(mux, stream),
                 lambda: check_equivalence(mux, sum_tt, stream)):
        with pytest.raises(ValueError, match="refusing to load"):
            load()
    assert check_equivalence(dec, sum_tt, stream).passed
    # a stream with no fingerprint is not checked
    bare = ConfigBitstream(stream.bits)
    assert load_config(mux, bare).config is bare
    assert check_equivalence(mux, sum_tt, bare).summary() == "3/9 vectors, FAIL"


@pytest.mark.parametrize("config", [(1, 0), [1, 0], {"c0": 1}])
def test_a_config_that_is_no_bitstream_is_refused(config):
    # each once raised AttributeError on its missing fingerprint
    nl = build_fabric_decoder(2, 1)
    tt = TruthTable.make(2, 1, (0, 1))
    for load in (lambda: load_config(nl, config),
                 lambda: check_equivalence(nl, tt, config=config)):
        with pytest.raises(ValueError, match=re.escape(
                f"config must be a ConfigBitstream, got {config!r}")):
            load()


def test_a_bitstream_keeps_its_own_bits():
    # bits built from a list are copied into a tuple: editing the list
    # afterwards changes neither the stream nor a check run under it
    nl = build_fabric_decoder(2, 1)
    tt = TruthTable.make(2, 1, (1, 0))
    raw = list(derive_config(tt, nl).bits)
    stream = ConfigBitstream(raw)
    assert type(stream.bits) is tuple and stream.bits == tuple(raw)
    before = check_equivalence(nl, tt, config=stream)
    assert before.passed
    raw[:] = [1 - b for b in raw]
    assert stream.bits == tuple(1 - b for b in raw)
    assert check_equivalence(nl, tt, config=stream) == before


def test_a_fabric_is_hashed_once_per_program(monkeypatch):
    # the fingerprint a stream must match is hashed at the first check of
    # one that carries it and kept with the compiled program; a program
    # checked only under bare streams, or under none, is never hashed
    hashed = []

    def counted(nl):
        hashed.append(nl)
        return fingerprint(nl)

    monkeypatch.setattr(sim, "fingerprint", counted)
    nl = build_fabric_mux(5, 2)  # 125 configuration latches
    tt = TruthTable.make(5, 2, [(a + b) % 5 for a in range(5) for b in range(5)])
    bare = derive_config(tt, nl)
    assert check_equivalence(nl, tt, config=bare).passed
    assert hashed == []
    stream = ConfigBitstream(bare.bits, fingerprint(nl))
    for _ in range(3):
        assert eval_vectors(nl, [(1, 3)], load_config(nl, stream)) == [(4,)]
        assert check_equivalence(nl, tt, config=stream).passed
        with pytest.raises(ValueError, match="refusing to load"):
            load_config(nl, ConfigBitstream(stream.bits, "sha256:0"))
    assert hashed == [nl]
    validate(nl)  # a new program hashes again, once
    for _ in range(3):
        assert check_equivalence(nl, tt, config=stream).passed
    assert hashed == [nl, nl]
    plain = synth_tables([tt], Strategy.MUX_TREE)
    assert check_equivalence(plain, tt).passed
    assert hashed == [nl, nl]


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
    # a state whose stream is taken away is unprogrammed again, and a
    # batch names the first latch in latch_order, as a single vector does
    nl = build_fabric_mux(3, 1)
    state = load_config(nl, derive_config(TruthTable.make(3, 1, (2, 0, 1)), nl))
    assert eval_vectors(nl, [(0,), (1,)], state) == [(2,), (0,)]
    state.config = None
    with pytest.raises(SimFaultError) as err:
        eval_vectors(nl, [(0,), (1,)], state)
    assert err.value.fault == Fault(FaultKind.UNINITIALIZED_LATCH,
                                    nl.latch_order[0])
    assert state.faults == [err.value.fault]


@pytest.mark.parametrize("bit", [2, -1, "0", True, False, 1.0, 0.0, None])
def test_a_configuration_bit_that_is_not_0_or_1_is_refused(bit):
    # no stream can hold it, and bits stored by hand as anything but a
    # stream are refused at the settle, before any sweep
    nl = build_fabric_decoder(3, 1)
    state = load_config(nl, derive_config(TruthTable.make(3, 1, (2, 0, 1)), nl))
    bits = list(state.config.bits)
    bits[4] = bit
    with pytest.raises(ValueError, match=re.escape(
            f"bitstream values must be 0 or 1, got {bit!r}")):
        ConfigBitstream(bits)
    state.config = bits
    with pytest.raises(ValueError, match=re.escape(
            f"config must be a ConfigBitstream, got {bits!r}")):
        eval_vectors(nl, [(0,), (1,), (2,)], state)
    assert state.faults == []


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
    fab.fabric_kind = "neither"
    with pytest.raises(ValueError, match="unknown fabric kind 'neither'"):
        derive_config(TruthTable.make(3, 2, SUM3), fab)
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


@pytest.mark.parametrize("build", [build_decoder_m, build_mux_m,
                                   build_fabric_decoder, build_fabric_mux])
def test_builders_refuse_no_function_inputs(build):
    with pytest.raises(ValueError, match="m must be >= 1"):
        build(3, 0)


@pytest.mark.parametrize("m", [True, 1.5, 2.0])
@pytest.mark.parametrize("build", [build_decoder_m, build_mux_m,
                                   build_fabric_decoder, build_fabric_mux])
def test_digit_counts_must_be_integers(build, m):
    with pytest.raises(ValueError, match=f"^m {m!r} is not an integer$"):
        build(3, m)


def test_latch_free_batches_sweep_once_and_build_no_cone(monkeypatch):
    # faulted vectors in a latch-free batch need no walk back from a latch
    def no_cone(*args):
        raise AssertionError("a latch-free batch built a cone")
    monkeypatch.setattr(sim, "_Cone", no_cone)
    sweeps = _count_sweeps(monkeypatch)
    tt = TruthTable.make(3, 2, SUM3)
    fabric = build_fabric_mux(3, 2)
    report = check_equivalence(fabric, tt,
                               config=derive_config(tt, fabric).flipped(1))
    assert [m.got.kind for m in report.mismatches] == [FaultKind.CONTENTION] * 9
    assert len(sweeps) == 1
    results = eval_vectors(_contention_netlist(False), [(1,), (0,)])
    assert [r.kind for r in results] == [FaultKind.CONTENTION,
                                         FaultKind.FLOATING_NET]
    assert len(sweeps) == 2
