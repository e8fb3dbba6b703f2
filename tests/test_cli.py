"""End-to-end command-line workflows through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import mvlsynth
from mvlsynth import cli, fileio
from mvlsynth.cli import main
from mvlsynth.oracle import DEFAULT_SEED
from mvlsynth.sim import Fault, FaultKind, SimFaultError
from mvlsynth.synth import Strategy, build_decoder_m, build_nary_dlatch
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from mvlsynth.values import Radix

SUM3 = TruthTable.make(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))
CARRY3 = TruthTable.make(3, 2, (0, 0, 0, 0, 0, 1, 0, 1, 1))


@pytest.fixture
def ws(tmp_path):
    fileio.save_table(tmp_path / "sum.json", SUM3, "sum3")
    fileio.save_table(tmp_path / "carry.json", CARRY3, "carry3")
    return tmp_path


def _p(ws, name):
    return str(ws / name)


def test_synth_then_verify(ws, capsys):
    assert main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json"),
                 "--strategy", "mux"]) == 0
    stats = capsys.readouterr().out
    assert stats.splitlines()[0].startswith("tlg")
    assert main(["verify", _p(ws, "sum.nl.json"), _p(ws, "sum.json")]) == 0
    assert "9/9 vectors, PASS" in capsys.readouterr().out


def test_verify_flags_wrong_table(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["verify", _p(ws, "sum.nl.json"), _p(ws, "carry.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "  inputs" in out


def test_verify_sampled(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["verify", _p(ws, "sum.nl.json"), _p(ws, "sum.json"),
                 "--exhaustive-cap", "5", "--seed", "3"]) == 0
    assert "(sampled, seed 3)" in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_refuses_a_cap_below_one(ws, capsys, cap):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["verify", _p(ws, "sum.nl.json"), _p(ws, "carry.json"),
                 "--exhaustive-cap", cap]) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert f"exhaustive cap must be at least 1, got {cap}" in out.err


def test_fabric_configure_verify(ws, capsys):
    assert main(["fabric", "--radix", "3", "--arity", "2",
                 "-o", _p(ws, "fab.json")]) == 0
    out = capsys.readouterr().out
    assert "27 configuration latches" in out
    assert "fingerprint sha256:" in out
    assert main(["configure", _p(ws, "fab.json"), _p(ws, "sum.json"),
                 "-o", _p(ws, "sum.bits.json")]) == 0
    assert "27 bits written" in capsys.readouterr().out
    assert main(["verify", _p(ws, "fab.json"), _p(ws, "sum.json"),
                 "--bitstream", _p(ws, "sum.bits.json")]) == 0
    assert "PASS" in capsys.readouterr().out
    # one flipped bit: the first unplugs a constant, the second shorts two
    bits = fileio.load_bitstream(ws / "sum.bits.json")
    for index, fault in ((0, "floating_net on w19 at inputs (0, 0)"),
                         (1, "contention on w19 at inputs (0, 1)")):
        fileio.save_bitstream(ws / "flip.bits.json", bits.flipped(index))
        assert main(["verify", _p(ws, "fab.json"), _p(ws, "sum.json"),
                     "--bitstream", _p(ws, "flip.bits.json")]) == 1
        assert fault in capsys.readouterr().out


def test_bitstream_fingerprint_guard(ws, capsys):
    main(["fabric", "--radix", "3", "--arity", "2", "-o", _p(ws, "fd.json")])
    main(["fabric", "--radix", "3", "--arity", "2", "--strategy", "mux",
          "-o", _p(ws, "fm.json")])
    main(["configure", _p(ws, "fd.json"), _p(ws, "sum.json"),
          "-o", _p(ws, "bits.json")])
    capsys.readouterr()
    assert main(["verify", _p(ws, "fm.json"), _p(ws, "sum.json"),
                 "--bitstream", _p(ws, "bits.json")]) == 2
    assert "refusing to load" in capsys.readouterr().err


def test_configure_shape_mismatch(ws, capsys):
    fileio.save_table(ws / "q.json", TruthTable.make(4, 2, (0,) * 16))
    main(["fabric", "--radix", "3", "--arity", "2", "-o", _p(ws, "fab.json")])
    capsys.readouterr()
    assert main(["configure", _p(ws, "fab.json"), _p(ws, "q.json"),
                 "-o", _p(ws, "bits.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_configure_rejects_a_netlist_that_is_not_a_fabric(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["configure", _p(ws, "sum.nl.json"), _p(ws, "sum.json"),
                 "-o", _p(ws, "bits.json")]) == 2
    assert "netlist is not a reconfigurable fabric" in capsys.readouterr().err
    assert not (ws / "bits.json").exists()


def test_sim_combinational(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "sum.nl.json"), "1,2", "2,2"]) == 0
    assert capsys.readouterr().out == "0\n1\n"


def test_sim_needs_vectors(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "sum.nl.json")]) == 2
    assert "no input vectors" in capsys.readouterr().err


def test_sim_fabric_requires_bitstream(ws, capsys):
    main(["fabric", "--radix", "3", "--arity", "2", "-o", _p(ws, "fab.json")])
    main(["configure", _p(ws, "fab.json"), _p(ws, "sum.json"),
          "-o", _p(ws, "bits.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "fab.json"), "1,2"]) == 2
    assert "--bitstream" in capsys.readouterr().err
    assert main(["sim", _p(ws, "fab.json"), "1,2",
                 "--bitstream", _p(ws, "bits.json")]) == 0
    assert capsys.readouterr().out == "0\n"
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "sum.nl.json"), "1,2",
                 "--bitstream", _p(ws, "bits.json")]) == 2


def test_sim_refuses_digits_that_do_not_parse(ws, capsys):
    fileio.save_netlist(ws / "dec.json", build_decoder_m(3, 2))
    assert main(["sim", _p(ws, "dec.json"), "1,x"]) == 2
    assert ("vector: expected comma-separated digits, got '1,x'"
            in capsys.readouterr().err)
    fileio.save_netlist(ws / "latch.json", build_nary_dlatch(3))
    assert main(["sim", _p(ws, "latch.json"), "1,1", "--reset", "a"]) == 2
    assert ("--reset: expected comma-separated digits, got 'a'"
            in capsys.readouterr().err)


def test_sim_never_runs_a_partly_programmed_fabric(ws, capsys):
    # a fabric runs only under a bitstream that sets every configuration
    # latch, so the CLI never reaches an unprogrammed one
    main(["fabric", "--radix", "3", "--arity", "2", "-o", _p(ws, "fab.json")])
    fab = fileio.load_netlist(ws / "fab.json")
    short = ConfigBitstream((1,) * (len(fab.latch_order) - 1),
                            fileio.fingerprint(fab))
    fileio.save_bitstream(ws / "short.json", short)
    capsys.readouterr()
    assert main(["sim", _p(ws, "fab.json"), "1,2",
                 "--bitstream", _p(ws, "short.json")]) == 2
    assert "bitstream has 26 bits" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_fsm_compile_and_step(ws, capsys, strategy):
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    fileio.save_fsm(ws / "ctr.json", spec)
    assert main(["fsm", _p(ws, "ctr.json"), "-o", _p(ws, "ctr.nl.json"),
                 "--strategy", strategy]) == 0
    capsys.readouterr()
    assert main(["sim", _p(ws, "ctr.nl.json"), "--reset", "0",
                 "--steps", "5"]) == 0
    assert capsys.readouterr().out == "1\n2\n0\n1\n2\n"


@pytest.mark.parametrize("value", [2.5, True, "2", None])
def test_fsm_with_a_non_integer_entry_exits_2(ws, capsys, value):
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    doc = json.loads(fileio.fsm_to_text(spec))
    doc["transition"][0][2] = value
    (ws / "bad.json").write_text(json.dumps(doc))
    assert main(["fsm", _p(ws, "bad.json"), "-o", _p(ws, "bad.nl.json")]) == 2
    assert "field 'transition[0][2]'" in capsys.readouterr().err
    assert not (ws / "bad.nl.json").exists()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_sim_refuses_steps_below_one(ws, capsys, steps):
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    fileio.save_fsm(ws / "ctr.json", spec)
    main(["fsm", _p(ws, "ctr.json"), "-o", _p(ws, "ctr.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "ctr.nl.json"), "--reset", "0",
                 "--steps", steps]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--steps must be at least 1, got {steps}" in out.err


def test_sim_sequential_guards(ws, capsys):
    spec = FsmSpec(Radix(3), 1, 1, (TruthTable.make(
        3, 2, tuple((s + i) % 3 for s in range(3) for i in range(3))),))
    fileio.save_fsm(ws / "acc.json", spec)
    main(["fsm", _p(ws, "acc.json"), "-o", _p(ws, "acc.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "acc.nl.json"), "1", "2"]) == 2
    assert "--reset" in capsys.readouterr().err
    assert main(["sim", _p(ws, "acc.nl.json"), "1", "2", "0", "2",
                 "--reset", "0"]) == 0
    assert capsys.readouterr().out == "1\n0\n0\n2\n"
    assert main(["sim", _p(ws, "acc.nl.json"), "1", "--reset", "0",
                 "--steps", "2"]) == 2
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "sum.nl.json"), "1,2", "--reset", "0"]) == 2
    assert "no state" in capsys.readouterr().err
    # a netlist without inputs refuses vectors, malformed ones too
    fileio.save_fsm(ws / "ctr.json", FsmSpec(Radix(3), 1, 0, (
        TruthTable.make(3, 1, (1, 2, 0)),)))
    main(["fsm", _p(ws, "ctr.json"), "-o", _p(ws, "ctr.nl.json")])
    capsys.readouterr()
    assert main(["sim", _p(ws, "ctr.nl.json"), "1,2", "7,7,7",
                 "--reset", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "no inputs" in out.err and "--steps" in out.err


def test_sim_streams_its_steps(ws, capsys, monkeypatch):
    # a count too large for any list runs until its third step faults
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    fileio.save_fsm(ws / "ctr.json", spec)
    main(["fsm", _p(ws, "ctr.json"), "-o", _p(ws, "ctr.nl.json")])
    capsys.readouterr()
    real, calls = cli.step_sequential, []

    def step(nl, inputs, state):
        calls.append(inputs)
        if len(calls) == 3:
            raise SimFaultError(Fault(FaultKind.OSCILLATION, "w0"))
        return real(nl, inputs, state)
    monkeypatch.setattr(cli, "step_sequential", step)
    assert main(["sim", _p(ws, "ctr.nl.json"), "--reset", "0",
                 "--steps", str(10 ** 19)]) == 1
    assert capsys.readouterr().out == "1\n2\nfault: oscillation on w0\n"
    assert calls == [(), (), ()]


# Run the CLI in a child that caps its own address space, so a fabric
# that ignores the budget fails with MemoryError instead of exhausting RAM.
_CAPPED = """import resource, sys
soft, hard = 400 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from mvlsynth.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_fabric_refuses_more_latches_than_its_budget(ws, capsys, monkeypatch):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvlsynth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for strategy in ("decoder", "mux"):
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED, "fabric", "--radix", "100",
             "--arity", "4", "-o", _p(ws, "big.json"), "--strategy", strategy],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert ("--radix 100 --arity 4 needs 100^5 configuration latches, "
                "over the limit of 65536") in done.stderr
        assert not (ws / "big.json").exists()
    assert main(["fabric", "--radix", "3", "--arity", "2",
                 "-o", _p(ws, "fab.json")]) == 0
    capsys.readouterr()
    # the budget's edge, decided before the builder runs
    reached = []

    def builder(radix, arity):
        reached.append((radix, arity))
        raise ValueError("not built")
    monkeypatch.setattr(cli, "build_fabric_decoder", builder)
    for radix, arity in ((2, 15), (2, 16), (4, 7), (256, 1), (257, 1),
                         (3, 10 ** 30), (1, 4), (3, 0)):
        assert main(["fabric", "--radix", str(radix), "--arity", str(arity),
                     "-o", _p(ws, "edge.json")]) == 2
    assert reached == [(2, 15), (4, 7), (256, 1), (1, 4), (3, 0)]
    assert capsys.readouterr().err.count("over the limit of 65536") == 3


def test_a_radix_above_the_bound_exits_2_before_any_allocation(ws):
    # a radix-10^9 input feeding a TLG: sim once sized tables by the radix
    # and ran out of memory
    doc = {"version": "1", "kind": "netlist", "fabric_kind": None,
           "clock": None, "inputs": ["x"], "outputs": ["y"],
           "nets": [{"id": "x", "radix": 10 ** 9}, {"id": "w0", "radix": None}],
           "gates": [
               {"id": "x", "gate": "input", "radix": 10 ** 9, "pins": {"y": "x"}},
               {"id": "t", "gate": "tlg", "param": 0, "pins": {"d": "x", "y": "w0"}},
               {"id": "y", "gate": "output", "pins": {"a": "w0"}}],
           "latch_order": [], "state_latches": [], "state_groups": []}
    (ws / "big.nl.json").write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvlsynth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    nl = _p(ws, "big.nl.json")
    for argv in (["sim", nl, "1"], ["verify", nl, _p(ws, "sum.json")],
                 ["stats", nl]):
        done = subprocess.run([sys.executable, "-c", _CAPPED, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stderr == ("error: invalid netlist: "
                               "net x: radix 1000000000 is above 256\n")


def test_stats_and_export_dot(ws, capsys, tmp_path):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["stats", _p(ws, "sum.nl.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 10
    assert any(line.startswith("switch") for line in out)
    assert main(["export-dot", _p(ws, "sum.nl.json")]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    dot = tmp_path / "g.dot"
    assert main(["export-dot", _p(ws, "sum.nl.json"), "-o", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


def test_usage_errors(ws, capsys):
    assert main(["verify", _p(ws, "missing.json"), _p(ws, "sum.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["fabric", "--radix", "3", "--arity", "0",
                 "-o", _p(ws, "f.json")]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    assert main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "x.json"),
                 "--strategy", "bogus"]) == 2
    capsys.readouterr()
    (ws / "r300.json").write_text('{"version": "1", "kind": "truth_table", '
                                  '"radix": 300, "arity": 1, "outputs": [0]}')
    assert main(["synth", _p(ws, "r300.json"), "-o", _p(ws, "x.json")]) == 2
    assert "field 'radix'" in capsys.readouterr().err
    assert not (ws / "x.json").exists()


def test_calls_in_one_process_do_not_share_arguments(ws, capsys):
    fab, bits = _p(ws, "fab.json"), _p(ws, "sum.bits.json")
    assert main(["fabric", "--radix", "3", "--arity", "2", "-o", fab]) == 0
    assert main(["configure", fab, _p(ws, "sum.json"), "-o", bits]) == 0
    assert main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")]) == 0
    capsys.readouterr()
    assert main(["verify", fab, _p(ws, "sum.json"), "--bitstream", bits,
                 "--seed", "5", "--exhaustive-cap", "4"]) == 0
    assert "(sampled, seed 5)" in capsys.readouterr().out
    # This netlist would refuse the fabric's stream with exit 2.
    assert main(["verify", _p(ws, "sum.nl.json"), _p(ws, "sum.json"),
                 "--exhaustive-cap", "4"]) == 0
    assert f"(sampled, seed {DEFAULT_SEED})" in capsys.readouterr().out

    assert main(["synth", _p(ws, "sum.json"), "--strategy", "bogus"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "again.nl.json")]) == 0
    assert (ws / "again.nl.json").read_text() == (ws / "sum.nl.json").read_text()
    capsys.readouterr()

    helps = []
    for _ in range(2):
        assert main(["--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: mvlsynth")


def test_mistyped_netlist_field_exits_2(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "sum.nl.json").read_text())
    doc["clock"] = [1]
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main(["stats", _p(ws, "bad.nl.json")]) == 2
    assert "field 'clock'" in capsys.readouterr().err


def test_deeply_nested_file_exits_2_without_a_traceback(ws, capsys):
    (ws / "deep.json").write_text("[" * 100000 + "]" * 100000)
    assert main(["stats", _p(ws, "deep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not valid JSON: ")
    assert "Traceback" not in err


def test_gate_without_fan_in_exits_2(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "sum.nl.json").read_text())
    gate = next(g for g in doc["gates"] if g["gate"] == "and")
    gate["param"] = None
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main(["stats", _p(ws, "bad.nl.json")]) == 2
    assert f"{gate['id']}: fan-in None is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "export-dot"])
def test_port_list_entry_naming_no_gate_exits_2(ws, capsys, command):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "sum.nl.json").read_text())
    doc["outputs"].append("ghost")
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main([command, _p(ws, "bad.nl.json")]) == 2
    assert ("output list entry ghost is not an output port"
            in capsys.readouterr().err)


def test_port_list_repeating_an_entry_exits_2(ws, capsys):
    # both digits of f(a, b) = (b + 1) % 3 on a 1-digit netlist's one input
    # port would make the last digit win and verify pass
    fileio.save_table(ws / "inc.json", TruthTable.make(3, 1, (1, 2, 0)))
    fileio.save_table(ws / "inc2.json",
                      TruthTable.make(3, 2, [(b + 1) % 3 for a in range(3)
                                             for b in range(3)]))
    main(["synth", _p(ws, "inc.json"), "-o", _p(ws, "inc.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "inc.nl.json").read_text())
    doc["inputs"] = ["x", "x"]
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main(["verify", _p(ws, "bad.nl.json"), _p(ws, "inc2.json")]) == 2
    assert "input list repeats an entry" in capsys.readouterr().err


def test_unknown_gate_kind_exits_2(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "sum.nl.json").read_text())
    i = next(i for i, g in enumerate(doc["gates"]) if g["gate"] == "tlg")
    doc["gates"][i]["gate"] = "nary_inverter"
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main(["stats", _p(ws, "bad.nl.json")]) == 2
    err = capsys.readouterr().err
    assert f"field 'gates[{i}].gate': unknown kind 'nary_inverter'" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvlsynth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mvlsynth", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "usage: mvlsynth" in done.stdout
