"""End-to-end command-line workflows through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import mvlsynth
from mvlsynth import fileio
from mvlsynth.cli import main
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


def test_fsm_compile_and_step(ws, capsys):
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    fileio.save_fsm(ws / "ctr.json", spec)
    assert main(["fsm", _p(ws, "ctr.json"), "-o", _p(ws, "ctr.nl.json")]) == 0
    capsys.readouterr()
    assert main(["sim", _p(ws, "ctr.nl.json"), "--reset", "0",
                 "--steps", "5"]) == 0
    assert capsys.readouterr().out == "1\n2\n0\n1\n2\n"


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


def test_stats_and_export_dot(ws, capsys, tmp_path):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    assert main(["stats", _p(ws, "sum.nl.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 11
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


def test_mistyped_netlist_field_exits_2(ws, capsys):
    main(["synth", _p(ws, "sum.json"), "-o", _p(ws, "sum.nl.json")])
    capsys.readouterr()
    doc = json.loads((ws / "sum.nl.json").read_text())
    doc["clock"] = [1]
    (ws / "bad.nl.json").write_text(json.dumps(doc))
    assert main(["stats", _p(ws, "bad.nl.json")]) == 2
    assert "field 'clock'" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvlsynth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mvlsynth", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "usage: mvlsynth" in done.stdout
