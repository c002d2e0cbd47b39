import json

import numpy as np
import pytest

from tricol.cli import main

WORKED = {"extent": "finite", "l": 2,
          "bd": [1, 1, 2], "bu": [2, 1, 0], "bz": [0, 1, 1]}
TWO_STATE_Q = {"extent": "finite", "l": 1,
               "bd": [0, 2], "bu": [1, 0], "bz": [0, 0]}


def write(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, WORKED)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "l=2" in out

    def test_bd0_zero_exits_2(self, tmp_path, capsys):
        doc = dict(WORKED, bd=[0, 1, 2])
        assert main(["validate", write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "bd[0]" in err and "> 0" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/nonexistent/path.json"]) == 2

    def test_usage_error_exits_1(self):
        assert main(["no-such-command"]) == 1


class TestInvertCommand:
    def test_worked_example_entry(self, tmp_path, capsys):
        assert main(["invert", write(tmp_path, WORKED), "--n", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        row0 = lines[0].split()
        assert row0[1] == "-0.857142857143"  # 12 significant digits
        assert "residual" in out
        resid = float([l for l in lines if l.startswith("residual")][0].split()[1])
        assert resid < 1e-12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spec = write(tmp_path, WORKED)
        main(["invert", spec, "--n", "3"])
        a = capsys.readouterr().out
        main(["invert", spec, "--n", "3"])
        b = capsys.readouterr().out
        assert a == b

    @pytest.mark.parametrize("doc,n,audits", [
        (WORKED, 3, 1),   # the finite full-size solve audited the block
        (WORKED, 2, 1),   # a leading block is audited here
        ({"extent": "finite", "l": 5, "homogeneous": {"bd": 2, "bu": 1, "bz": 1},
          "truncation": "special"}, 6, 1),
    ])
    def test_block_audited_once(self, tmp_path, capsys, monkeypatch, doc, n, audits):
        from tricol import general, homogeneous
        calls = []
        audit = general.block_residual

        def counted(view, n=None):
            calls.append(n)
            return audit(view, n)

        for module in (general, homogeneous):
            monkeypatch.setattr(module, "block_residual", counted, raising=False)
        assert main(["invert", write(tmp_path, doc), "--n", str(n)]) == 0
        resid = [l for l in capsys.readouterr().out.splitlines() if l.startswith("residual")]
        assert len(calls) == audits and len(resid) == 1

    def test_exact_flag_round_trips(self, tmp_path, capsys):
        main(["--exact", "invert", write(tmp_path, WORKED), "--n", "3"])
        out = capsys.readouterr().out
        val = float(out.strip().splitlines()[0].split()[1])
        assert val == -6.0 / 7.0


class TestElementCommand:
    def test_single_entry(self, tmp_path, capsys):
        assert main(["element", write(tmp_path, WORKED), "2", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("c(2,1) = ")
        assert float(lines[0].split("=")[1]) == pytest.approx(-8.0 / 7.0, abs=1e-11)
        resid = float(lines[1].split()[1])
        assert resid < 1e-12


class TestSteadyStateCommand:
    def test_two_state(self, tmp_path, capsys):
        assert main(["--digits", "10", "steady-state",
                     write(tmp_path, TWO_STATE_Q)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0.6666666667 0.3333333333"

    def test_infinite_tail(self, tmp_path, capsys):
        doc = {"extent": "infinite",
               "head": {"bd": [0.0], "bu": [1.0], "bz": [0.0]},
               "tail": {"bd": 2.0, "bu": 1.0, "bz": 0.0}}
        assert main(["steady-state", write(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "tail-bound" in out and "truncation-level" in out


class TestValueFunctionCommand:
    def test_inline_cost(self, tmp_path, capsys):
        doc = dict(TWO_STATE_Q)
        doc["cost"] = [1.0, 0.0]
        doc["discount"] = 0.5
        assert main(["value-function", write(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        V = [float(x) for x in out.splitlines()[0].split()]
        Qd = np.array([[-1.0, 1.0], [2.0, -2.0]])
        want = np.linalg.solve(0.5 * np.eye(2) - Qd, [1.0, 0.0])
        assert np.allclose(V, want, atol=1e-10)

    def test_missing_cost_is_validation_error(self, tmp_path, capsys):
        assert main(["value-function", write(tmp_path, TWO_STATE_Q),
                     "--discount", "0.5"]) == 2

    def test_negative_rate_exits_2(self, tmp_path, capsys):
        doc = dict(TWO_STATE_Q, bd=[0, -2], cost=[1.0, 0.0], discount=0.5)
        assert main(["value-function", write(tmp_path, doc)]) == 2
        assert "negative" in capsys.readouterr().err


class TestAbsorbingCommand:
    def test_block_and_closed_form(self, capsys):
        assert main(["absorbing-bd", "--bd", "2", "--bu", "1", "--bz", "1",
                     "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "c11-closed-form -0.707106781187" in out
        first_row = out.splitlines()[0].split()
        assert first_row[1:] == ["0", "0", "0"]


class TestEigenCommand:
    def test_worked_with_oracle(self, tmp_path, capsys):
        assert main(["eigen", write(tmp_path, WORKED), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "gershgorin ok" in out
        assert "oracle-gap" in out
        gap = float([l for l in out.splitlines()
                     if l.startswith("oracle-gap")][0].split()[1])
        assert gap < 1e-6


class TestBenchCommand:
    def test_counts_only(self, tmp_path, capsys):
        out_file = str(tmp_path / "report.json")
        assert main(["bench", "--sizes", "16,32", "--repetitions", "0",
                     "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "count-slope" in out
        doc = json.loads(open(out_file).read())
        assert doc["sizes"] == [16, 32]


class TestSelftestCommand:
    def test_all_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[PASS]") == 8


class TestToleranceEnv:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRICOL_TOL", "1e-10")
        assert main(["validate", write(tmp_path, WORKED)]) == 0

    def test_bad_env_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRICOL_TOL", "soup")
        assert main(["validate", write(tmp_path, WORKED)]) == 2


class TestNumericalExit:
    def test_singular_spec_exits_3(self, tmp_path, capsys):
        doc = {"extent": "finite", "l": 2, "bd": [1, 0, 1],
               "bu": [1, 1, 0], "bz": [0, 0, 0]}
        assert main(["invert", write(tmp_path, doc), "--n", "3"]) == 3
        assert "error" in capsys.readouterr().err


class TestInvertOut:
    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "block.txt"
        assert main(["invert", write(tmp_path, WORKED), "--n", "3",
                     "--out", str(out)]) == 0
        loaded = np.loadtxt(out)
        assert loaded.shape == (3, 3)
        assert abs(loaded[0, 1] + 6.0 / 7.0) < 1e-12
