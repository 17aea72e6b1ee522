import json
import math

import pytest

from qcmachine import cli
from qcmachine.cli import main

COLD_COHERENT = """\
B = 1.0
gamma = 1.0
bath1.T = 2.5
bath1.B = 0.9
bath1.epsilon = 0.3
bath1.phi = 0.0
bath2.T = 3.0
bath2.B = 1.2
"""

COLD_NO_COHERENCE = COLD_COHERENT.replace("bath1.epsilon = 0.3", "bath1.epsilon = 0.0")

# hot coherent bath, engine zone beyond the Carnot efficiency (B2 < B1 T2/T1, eps1 > eps1*)
HOT_BEYOND_CARNOT = """\
B = 1.0
gamma = 1.0
bath1.T = 3.0
bath1.B = 1.2
bath1.epsilon = 0.4
bath2.T = 2.5
bath2.B = 0.95
"""


@pytest.fixture
def cfg(tmp_path):
    def write(text, name="machine.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_steady_state_command(cfg, tmp_path, capsys):
    out = tmp_path / "ss.json"
    rc = main(["steady-state", "--config", cfg(COLD_COHERENT), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "steady-state"
    assert doc["params"]["bath1.epsilon"] == 0.3
    assert doc["max_abs_deviation"] < 1e-10
    assert doc["analytic"]["rho_ee"] + doc["analytic"]["rho_gg"] == pytest.approx(1.0, abs=1e-12)
    assert doc["effective_coherence"]["gamma_eff"] == 2.0


def test_steady_state_thermal_population(cfg, tmp_path):
    out = tmp_path / "ss.json"
    assert main(["steady-state", "--config", cfg(COLD_NO_COHERENCE), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    n1 = 1.0 / (math.exp(2 * 0.9 / 2.5) - 1.0)
    n2 = 1.0 / (math.exp(2 * 1.2 / 3.0) - 1.0)
    n = 0.5 * (n1 + n2)
    assert doc["analytic"]["rho_ee"] == pytest.approx(n / (2 * n + 1), rel=1e-12)
    assert doc["analytic"]["rho_eg_re"] == pytest.approx(0.0, abs=1e-15)


def test_malformed_config_exits_2(cfg, tmp_path, capsys):
    rc = main(["steady-state", "--config", cfg("B = what\nnope"), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "line 1" in err and "line 2" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["steady-state", "--config", str(tmp_path / "absent.cfg"), "--out", "-"])
    assert rc == 2


def test_currents_command_refrigerator(cfg, tmp_path):
    out = tmp_path / "currents.json"
    assert main(["currents", "--config", cfg(COLD_NO_COHERENCE), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "refrigerator"
    assert not doc["beyond_carnot"]
    assert doc["totals"]["q1"] == pytest.approx(0.0862, abs=1e-3)
    assert doc["totals"]["w"] == pytest.approx(0.0287, abs=1e-3)
    assert abs(doc["first_law_residual"]) < 1e-10


def test_currents_command_beyond_carnot_engine(cfg, tmp_path):
    out = tmp_path / "currents.json"
    assert main(["currents", "--config", cfg(HOT_BEYOND_CARNOT), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "engine"
    assert doc["beyond_carnot"] is True


def test_currents_equal_temperatures_carnot_point(cfg, tmp_path):
    text = "B = 1.0\ngamma = 1.0\nbath1.T = 2.0\nbath1.B = 1.0\nbath2.T = 2.0\nbath2.B = 1.0\n"
    out = tmp_path / "currents.json"
    assert main(["currents", "--config", cfg(text), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["regime"] == "carnot_point"


def test_diagram_outputs_and_determinism(cfg, tmp_path):
    config = cfg(COLD_NO_COHERENCE)
    args = ["diagram", "--config", config,
            "--grid", "bath1.B:0.8:1.5:15", "--grid", "bath1.epsilon:0:1:11"]
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    text = out1.read_text().splitlines()
    data = [ln for ln in text if not ln.startswith("#")]
    assert data[0].startswith("bath1.B,bath1.epsilon,q1_coh")
    assert len(data) == 1 + 15 * 11
    regimes = {ln.split(",")[16] for ln in data[1:]}
    assert {"refrigerator", "engine", "accelerator", "hybrid_refrigerator"} <= regimes
    for name in ("b_equal", "n_equal", "epsilon_star"):
        overlay = tmp_path / f"d1.boundary_{name}.csv"
        assert overlay.exists()
        assert main(args + ["--out", str(out2)]) == 0  # overlays rewritten identically
        assert overlay.read_bytes() == (tmp_path / f"d2.boundary_{name}.csv").read_bytes()


def test_diagram_same_key_on_both_axes(cfg, tmp_path):
    out = tmp_path / "d.csv"
    assert main(["diagram", "--config", cfg(COLD_COHERENT), "--grid", "B:0.5:1.5:3", "--grid", "B:0.7:1.2:4",
                 "--out", str(out)]) == 0
    data = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert data[0][:3] == ["B", "B", "q1_coh"]
    assert len(data) == 1 + 3 * 4 and all(len(row) == len(data[0]) for row in data)
    # the second axis sets the field
    assert [float(row[1]) for row in data[1:5]] == [float(row[1]) for row in data[5:9]]
    assert [row[2] for row in data[1:5]] == [row[2] for row in data[5:9]]


def test_diagram_requires_two_grids(cfg, tmp_path, capsys):
    rc = main(["diagram", "--config", cfg(COLD_COHERENT), "--grid", "bath1.B:0.8:1.5:5",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_curve_command(cfg, tmp_path):
    config = cfg(HOT_BEYOND_CARNOT.replace("bath1.epsilon = 0.4", "bath1.epsilon = 0.0"))
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--config", config, "--grid", "bath2.B:0.93:1.19:60", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("# eta_at_max_power")]
    assert header
    eta_mp = float(header[0].split("=")[1])
    assert eta_mp == pytest.approx(1.0 - math.sqrt(2.5 / 3.0), abs=2e-3)
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert data
    etas = [float(ln.split(",")[1]) for ln in data]
    assert max(etas) < 1.0 / 6.0 + 1e-9


def test_curve_with_coherence_crosses_carnot(cfg, tmp_path):
    config = cfg(HOT_BEYOND_CARNOT.replace("bath1.epsilon = 0.4", "bath1.epsilon = 0.1"))
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", config, "--grid", "bath2.B:0.93:1.19:60", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    beyond = [r for r in rows if float(r[1]) > 1.0 / 6.0 and -float(r[2]) > 1e-4]
    assert beyond


def test_collide_command(cfg, tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["collide", "--config", cfg(COLD_COHERENT), "--tau-ladder", "0.05",
               "--collisions", "50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].split(",")[0] == "collision"
    assert len(data) == 51
    last = data[-1].split(",")
    assert float(last[1]) + float(last[2]) == pytest.approx(1.0, abs=1e-10)


def test_collide_requires_out_before_computing(cfg, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("collide computed a trajectory without --out")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["collide", "--config", cfg(COLD_COHERENT), "--collisions", "50"]) == 2


def test_verify_command_passes(cfg, tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--config", cfg(COLD_COHERENT), "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert rc == 0, f"failed checks: {failed}"
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"steady_state_agreement", "first_law", "collision_convergence",
            "entropy_relation_extrapolated", "classical_consistency"} <= names


def test_stdout_output(cfg, capsys):
    rc = main(["steady-state", "--config", cfg(COLD_COHERENT), "--out", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "steady-state"


def test_currents_csv_format(cfg, tmp_path):
    out = tmp_path / "currents.csv"
    assert main(["currents", "--config", cfg(COLD_NO_COHERENCE), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# regime = refrigerator") for ln in lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].startswith("q1_coh,q1_inc,q1")
    cells = data[1].split(",")
    assert len(cells) == len(data[0].split(","))
    q1 = float(cells[2])
    assert q1 == pytest.approx(0.0862, abs=1e-3)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_diagram_json_format(cfg, tmp_path):
    out = tmp_path / "diagram.json"
    rc = main(["diagram", "--config", cfg(COLD_NO_COHERENCE), "--format", "json",
               "--grid", "bath1.B:0.8:1.5:8", "--grid", "bath1.epsilon:0:1:5",
               "--out", str(out)])
    assert rc == 0
    doc = _strict_json(out.read_text())
    assert len(doc["records"]) == 40
    assert set(doc["boundaries"]) == {"b_equal", "n_equal", "epsilon_star"}
    assert doc["records"][0]["report"]["q1_inc"] is not None
    regimes = {r["regime"] for r in doc["records"]}
    assert {"engine", "refrigerator", "hybrid_refrigerator"} <= regimes
    for r in doc["records"]:
        assert (r["efficiency"] is None) == (r["regime"] != "engine")
        assert (r["cop"] is None) == (r["regime"] not in ("refrigerator", "hybrid_refrigerator"))
        assert (r["hybrid_cooling_per_work"] is None) == (r["regime"] != "hybrid_refrigerator")
        assert (r["hybrid_work_output"] is None) == (r["regime"] != "hybrid_refrigerator")


def test_diagram_json_nulls_rates_with_bath2_coherence(cfg, tmp_path):
    out = tmp_path / "diagram.json"
    rc = main(["diagram", "--config", cfg(COLD_COHERENT), "--format", "json",
               "--grid", "bath2.epsilon:0:0.2:3", "--grid", "bath1.phi:0:3:2", "--out", str(out)])
    assert rc == 0
    for r in _strict_json(out.read_text())["records"]:
        single = r["axis1_value"] == 0.0
        assert (r["report"]["c_rate_1"] is not None) == single
        assert (r["report"]["bound_residual_2"] is not None) == single


@pytest.mark.parametrize("command", ["diagram", "curve"])
def test_tolerance_applies_like_currents(cfg, tmp_path, command):
    config = cfg(COLD_COHERENT)
    for tolerance, regime in (("1e-9", "refrigerator"), ("0.5", "carnot_point")):
        cur = tmp_path / "currents.json"
        assert main(["currents", "--config", config, "--tolerance", tolerance, "--out", str(cur)]) == 0
        assert json.loads(cur.read_text())["regime"] == regime
        out = tmp_path / f"{command}.json"
        grids = (["--grid", "bath1.B:0.9:1.0:2", "--grid", "bath1.epsilon:0.3:0.4:2"] if command == "diagram"
                 else ["--grid", "bath2.B:0.6:1.2:4"])
        assert main([command, "--config", config, "--format", "json", "--tolerance", tolerance,
                     *grids, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if command == "diagram":
            # the first grid point is the configured machine
            assert doc["records"][0]["regime"] == regime
        elif regime == "carnot_point":
            assert doc["samples"] == [] and doc["skipped_non_engine_points"] == 4


@pytest.mark.parametrize("line, message", [
    ("bath1.epsilon = nan", "epsilon must be finite"),
    ("bath1.T = inf", "T must be finite"),
    ("bath1.B = 1e-320", "thermal occupation"),
])
def test_non_finite_inputs_exit_2(cfg, tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    text = "\n".join(ln for ln in COLD_COHERENT.splitlines() if not ln.startswith(key + " ")) + f"\n{line}\n"
    out = tmp_path / "currents.json"
    assert main(["currents", "--config", cfg(text), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["gamma:0:2:5", "bath1.T:-1:2:4", "bath1.epsilon:0:inf:3"])
def test_diagram_rejects_invalid_grid_points(cfg, tmp_path, capsys, grid):
    rc = main(["diagram", "--config", cfg(COLD_COHERENT), "--grid", grid, "--grid", "B:0.5:1.5:3",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unsupported_format_exits_2(cfg, tmp_path, capsys):
    rc = main(["steady-state", "--config", cfg(COLD_COHERENT), "--format", "csv", "--out", "-"])
    assert rc == 2
    assert "supports only" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_collide_rejects_non_positive_collisions(cfg, tmp_path, capsys, count):
    out = tmp_path / "traj.csv"
    with pytest.raises(SystemExit) as exc:
        main(["collide", "--config", cfg(COLD_COHERENT), "--collisions", count, "--out", str(out)])
    assert exc.value.code == 2
    assert "--collisions: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_non_negative(cfg, tmp_path, capsys, tolerance):
    out = tmp_path / "currents.json"
    with pytest.raises(SystemExit) as exc:
        main(["currents", "--config", cfg(COLD_COHERENT), "--tolerance", tolerance, "--out", str(out)])
    assert exc.value.code == 2
    assert "--tolerance: must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("currents", []),
    ("diagram", ["--grid", "bath1.B:0.8:1.5:3", "--grid", "bath1.epsilon:0:1:3"]),
    ("collide", ["--collisions", "5"]),
])
def test_out_into_missing_directory_exits_2(cfg, tmp_path, capsys, command, extra):
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--config", cfg(COLD_COHERENT), *extra, "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_cached_parser_carries_no_state_between_calls(cfg, tmp_path):
    config = cfg(HOT_BEYOND_CARNOT)
    outputs = []
    for k, grid in enumerate(("bath2.B:0.9:1.1:7", "bath2.B:0.8:1.2:11", "bath2.B:0.9:1.1:7")):
        out = tmp_path / f"curve{k}.csv"
        assert main(["curve", "--config", config, "--grid", grid, "--out", str(out)]) == 0
        outputs.append(out.read_text())
        assert f"# grid = {grid}" in outputs[-1].splitlines()
    assert outputs[0] == outputs[2] != outputs[1]
    assert cli._build_parser() is cli._build_parser()
