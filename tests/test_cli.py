import subprocess
import sys

import numpy as np
import pytest

from rdbalance import DiagnosticsSeries
from rdbalance.cli import dispatch

FOUR_SPECIES = """\
species A1 A2 A3 A4
diffusion A1=1 A2=1 A3=1 A4=1
reaction A1 + A3 <-> A2 + A4 : kf=1 kb=1
"""

CUBIC = """\
species A1 A2
diffusion A1=1 A2=1
reaction 3 A1 <-> A2 : kf=1 kb=1
"""

TRIANGLE = """\
species A1 A2 A3
diffusion A1=1 A2=1 A3=1
reaction A1 <-> A2 : kf=1 kb=1
reaction A2 <-> A3 : kf=1 kb=1
reaction A3 <-> A1 : kf=2 kb=1
"""

CONFIG = """\
network = four_species.rdn
domain = interval:1
grid = 32
scheme = strang
dt = 1e-3
t_end = 0.1
output_every = 10
output_dir = out
species.A1.base = 1.0
species.A1.modes = 1:0.01
species.A2.base = 1.0
species.A2.modes = 1:-0.01
species.A3.base = 1.0
species.A3.modes = 1:0.01
species.A4.base = 1.0
species.A4.modes = 1:-0.01
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "four_species.rdn").write_text(FOUR_SPECIES)
    (tmp_path / "cubic.rdn").write_text(CUBIC)
    (tmp_path / "triangle.rdn").write_text(TRIANGLE)
    (tmp_path / "run.cfg").write_text(CONFIG)
    return tmp_path


def test_validate_ok(workdir, capsys):
    code = dispatch(["validate", str(workdir / "four_species.rdn")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_cubic_fails(workdir, capsys):
    code = dispatch(["validate", str(workdir / "cubic.rdn")])
    assert code == 1
    assert "non-quadratic: |alpha| = 3" in capsys.readouterr().out


def test_validate_missing_file(workdir, capsys):
    code = dispatch(["validate", str(workdir / "nope.rdn")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_equilibrium_masses(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", "3,4,1"])
    assert code == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in out.strip().splitlines()}
    assert np.isclose(values["A1"], 2.4, rtol=1e-9)
    assert np.isclose(values["A2"], 0.6, rtol=1e-9)
    assert np.isclose(values["A3"], 0.4, rtol=1e-9)
    assert np.isclose(values["A4"], 1.6, rtol=1e-9)
    assert values["db_residual"] <= 1e-12
    assert "M32 = 1" in out


def test_equilibrium_no_detailed_balance(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "triangle.rdn"),
                     "--masses", "3"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_equilibrium_wrong_mass_count(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", "3,4"])
    assert code == 2


def test_gap_reports_bound(workdir, capsys):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "interval:1", "--masses", "2,2,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda_star = 4.00000000")
    assert "analytic_bound = 4.00000000" in out
    assert "mode 0" in out


def test_gap_with_explicit_equilibrium(workdir, capsys):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "interval:10", "--a-inf", "1,1,1,1"])
    assert code == 0
    out = capsys.readouterr().out
    lam = float(out.splitlines()[0].split(" = ")[1])
    assert np.isclose(lam, np.pi ** 2 / 100, atol=1e-9)


def test_gap_rejects_non_equilibrium(workdir, capsys):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "interval:1", "--a-inf", "2,1,1,1"])
    assert code == 3


def test_simulate_and_fit(workdir, capsys):
    code = dispatch(["simulate", str(workdir / "run.cfg")])
    assert code == 0
    diag = workdir / "out" / "diag.csv"
    assert diag.exists()
    snaps = sorted((workdir / "out").glob("snapshot_*.csv"))
    assert len(snaps) == 2  # initial and final
    first_line = diag.read_text().splitlines()[0]
    assert first_line.startswith("# rdbalance 0.1.0 ")

    code = dispatch(["fit", str(diag), "--column", "L2sq", "--window", "0,0.1"])
    assert code == 0
    out = capsys.readouterr().out
    fit_line = [l for l in out.splitlines() if l.startswith("lambda_fit")][0]
    rate = float(fit_line.split(" = ")[1])
    assert abs(rate - 2 * (np.pi ** 2 + 4)) <= 0.05 * 2 * (np.pi ** 2 + 4)


def test_heuristic_dt_divides_t_end(workdir, capsys):
    cfg = CONFIG.replace("dt = 1e-3\n", "")
    (workdir / "heuristic.cfg").write_text(cfg)
    assert dispatch(["simulate", str(workdir / "heuristic.cfg")]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("(heuristic)")
    series = DiagnosticsSeries.read_csv(workdir / "out" / "diag.csv")
    assert series.t[-1] == pytest.approx(0.1, abs=1e-12)
    steps = 0.1 / (series.t[1] / 10)  # output_every = 10
    assert steps == pytest.approx(round(steps), abs=1e-6)
    assert (workdir / "out" / f"snapshot_{round(steps):08d}.csv").exists()


def test_heuristic_dt_sets_up_the_run_once(workdir, monkeypatch):
    import rdbalance.cli
    import rdbalance.solver

    calls = dict.fromkeys(("build_initial", "decompose", "detailed_balance_equilibrium"), 0)
    for name in calls:
        original = getattr(rdbalance.solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (rdbalance.cli, rdbalance.solver):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    (workdir / "heuristic.cfg").write_text(CONFIG.replace("dt = 1e-3\n", ""))
    assert dispatch(["simulate", str(workdir / "heuristic.cfg")]) == 0
    assert calls == {"build_initial": 1, "decompose": 1,
                     "detailed_balance_equilibrium": 1}


def test_t_end_not_whole_steps(workdir, capsys):
    cfg = CONFIG.replace("dt = 1e-3", "dt = 0.3").replace("t_end = 0.1", "t_end = 0.5")
    (workdir / "overshoot.cfg").write_text(cfg)
    assert dispatch(["simulate", str(workdir / "overshoot.cfg")]) == 2
    assert "t_end = 0.5 is not a whole number of steps of dt = 0.3" \
        in capsys.readouterr().err


def test_simulate_deterministic(workdir):
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    first = (workdir / "out" / "diag.csv").read_bytes()
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    second = (workdir / "out" / "diag.csv").read_bytes()
    assert first == second


def test_simulate_rejects_invalid_network(workdir, tmp_path, capsys):
    cfg = CONFIG.replace("four_species.rdn", "cubic.rdn")
    cfg = "\n".join(l for l in cfg.splitlines() if not l.startswith("species."))
    cfg += "\nspecies.A1.base = 1.0\nspecies.A2.base = 1.0\n"
    (workdir / "bad.cfg").write_text(cfg)
    assert dispatch(["simulate", str(workdir / "bad.cfg")]) == 1


def test_simulate_bad_config_key(workdir, capsys):
    (workdir / "bad.cfg").write_text(CONFIG + "bogus_key = 1\n")
    assert dispatch(["simulate", str(workdir / "bad.cfg")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_simulate_jobs(workdir):
    for name in ("a", "b"):
        cfg = CONFIG.replace("output_dir = out", f"output_dir = out_{name}")
        (workdir / f"{name}.cfg").write_text(cfg)
    code = dispatch(["simulate", str(workdir / "a.cfg"), str(workdir / "b.cfg"),
                     "--jobs", "2"])
    assert code == 0
    assert (workdir / "out_a" / "diag.csv").exists()
    assert (workdir / "out_b" / "diag.csv").exists()


def test_initial_from_csv_round_trip(workdir, capsys):
    # run once, then feed the final snapshot back as initial data
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    snap = sorted((workdir / "out").glob("snapshot_*.csv"))[-1]
    cfg = "\n".join(l for l in CONFIG.splitlines()
                    if not l.startswith("species."))
    cfg = cfg.replace("output_dir = out", "output_dir = out2")
    cfg += f"\ninitial_csv = out/{snap.name}\n"
    (workdir / "csv.cfg").write_text(cfg)
    assert dispatch(["simulate", str(workdir / "csv.cfg")]) == 0
    assert (workdir / "out2" / "diag.csv").exists()


def test_equilibrium_from_initial(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--from-initial", str(workdir / "run.cfg")])
    assert code == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in out.strip().splitlines()}
    assert np.isclose(values["A1"], 1.0, rtol=1e-10)


def test_usage_error_exits_2(workdir):
    assert dispatch(["gap", str(workdir / "four_species.rdn")]) == 2


def test_gap_has_no_from_initial(workdir):
    assert dispatch(["gap", str(workdir / "four_species.rdn"), "--domain", "interval:1",
                     "--masses", "1,1,1",
                     "--from-initial", str(workdir / "missing.cfg")]) == 2


def test_module_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "rdbalance", "validate",
         str(workdir / "four_species.rdn")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_import_does_not_load_scipy():
    # scipy is imported when the first Stepper is built, not with the package
    code = "import sys, rdbalance, rdbalance.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bundled_perturbed_config(tmp_path, capsys):
    # the shipped mode-1 config decays at 2 (pi^2 + 4) in squared L2
    import shutil
    from pathlib import Path

    data = Path(__file__).parent / "data"
    for name in ("four_species_unit.rdn", "perturbed.cfg"):
        shutil.copy(data / name, tmp_path / name)
    assert dispatch(["simulate", str(tmp_path / "perturbed.cfg")]) == 0
    capsys.readouterr()
    code = dispatch(["fit", str(tmp_path / "out" / "diag.csv"),
                     "--column", "L2sq", "--window", "0,0.2"])
    assert code == 0
    out = capsys.readouterr().out
    rate = float(out.splitlines()[0].split(" = ")[1])
    target = 2 * (np.pi ** 2 + 4)
    assert abs(rate - target) <= 0.05 * target


def test_gap_rectangle_domain(workdir, capsys):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "rect:5,4", "--a-inf", "1,1,1,1"])
    assert code == 0
    lam = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert np.isclose(lam, (np.pi / 5) ** 2, atol=1e-9)


def test_fit_degenerate_column(workdir, capsys):
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    diag = workdir / "out" / "diag.csv"
    code = dispatch(["fit", str(diag), "--column", "M1"])
    assert code == 0
    assert "degenerate = true" in capsys.readouterr().out