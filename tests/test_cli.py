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

SLOW_SWAP = FOUR_SPECIES.replace("A1=1 A2=1 A3=1 A4=1", "A1=1e-4 A2=10 A3=10 A4=10")

SOURCES = """\
species A1 A2
diffusion A1=1 A2=1
reaction 0 <-> A1 : kf=1 kb=2
reaction 0 <-> A2 : kf=3 kb=1
"""

SMALL_MASS = """\
species A1 A2 A3 A4
diffusion A1=1 A2=1 A3=1 A4=1
reaction 2 A4 <-> 0 : kf=1.16347 kb=0.551831
reaction A1 + A3 <-> 0 : kf=0.995334 kb=8.68080
reaction A2 <-> 0 : kf=2.66435 kb=6.08085
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
snapshot_every = 0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "four_species.rdn").write_text(FOUR_SPECIES)
    (tmp_path / "cubic.rdn").write_text(CUBIC)
    (tmp_path / "triangle.rdn").write_text(TRIANGLE)
    (tmp_path / "slow_swap.rdn").write_text(SLOW_SWAP)
    (tmp_path / "sources.rdn").write_text(SOURCES)
    (tmp_path / "small_mass.rdn").write_text(SMALL_MASS)
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


@pytest.mark.parametrize("mass", ["1.0770175e-4", "1e-6"])
def test_equilibrium_small_mass_of_a_mixed_sign_law(workdir, capsys, mass):
    code = dispatch(["equilibrium", str(workdir / "small_mass.rdn"), "--masses", mass])
    assert code == 0
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in capsys.readouterr().out.strip().splitlines()}
    assert values["m1"] == float(mass)
    assert values["A1"] - values["A3"] == pytest.approx(float(mass), rel=1e-9)


def test_equilibrium_no_detailed_balance(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "triangle.rdn"),
                     "--masses", "3"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_equilibrium_wrong_mass_count(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", "3,4"])
    assert code == 2


def test_blank_masses_serve_a_network_without_conservation_laws(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "sources.rdn"), "--masses", ""])
    assert code == 0
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in capsys.readouterr().out.strip().splitlines()}
    assert np.isclose(values["A1"], 0.5, rtol=1e-12)
    assert np.isclose(values["A2"], 3.0, rtol=1e-12)
    code = dispatch(["gap", str(workdir / "sources.rdn"),
                     "--domain", "interval:1", "--masses", ""])
    assert code == 0
    assert capsys.readouterr().out.startswith("lambda_star = 1.000000000\n")


def test_blank_masses_refused_where_masses_are_conserved(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"), "--masses", ""])
    assert code == 2
    assert "expected 3 masses (M12, M14, M32)" in capsys.readouterr().err


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


@pytest.mark.parametrize("masses", ["inf,1,1", "1,nan,1"])
def test_equilibrium_refuses_non_finite_masses(workdir, capsys, masses):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", masses])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be strictly positive and finite" in captured.err


@pytest.mark.parametrize("a_inf", ["inf,1,1,1", "nan,1,1,1"])
def test_gap_refuses_non_finite_equilibrium(workdir, capsys, a_inf):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "interval:1", "--a-inf", a_inf])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a_inf must be a strictly positive, finite vector" in captured.err


def test_equilibrium_refuses_too_many_extreme_rays(tmp_path, capsys):
    # X_l + Y_l <-> X_{l+1} + Y_{l+1} for 16 layers has 2^16 extreme rays
    species = [f"{s}{l}" for l in range(16) for s in "XY"]
    lines = [f"species {' '.join(species)}",
             "diffusion " + " ".join(f"{name}=1" for name in species)]
    lines += [f"reaction X{l} + Y{l} <-> X{l + 1} + Y{l + 1} : kf=1 kb=1" for l in range(15)]
    (tmp_path / "layered.rdn").write_text("\n".join(lines) + "\n")
    code = dispatch(["equilibrium", str(tmp_path / "layered.rdn"), "--masses", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too many extreme rays" in captured.err


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


def test_simulate_runs_configs_in_turn(workdir):
    for name in ("a", "b"):
        cfg = CONFIG.replace("output_dir = out", f"output_dir = out_{name}")
        (workdir / f"{name}.cfg").write_text(cfg)
    cfg = CONFIG.replace("four_species.rdn", "cubic.rdn")
    cfg = "\n".join(l for l in cfg.splitlines() if not l.startswith("species."))
    (workdir / "bad.cfg").write_text(cfg + "\nspecies.A1.base = 1.0\nspecies.A2.base = 1.0\n")
    # the exit code is the worst over the configs, and each good one still runs
    code = dispatch(["simulate", str(workdir / "a.cfg"), str(workdir / "bad.cfg"),
                     str(workdir / "b.cfg")])
    assert code == 1
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


def test_small_grids_run_without_scipy(workdir):
    # scipy's DCT is imported only for a grid with an axis over 192 cells
    runs = [("interval:1", "64", "1"), ("rect:1,1", "128", "1,0"),
            ("rect:8,0.5", "200,4", "1,0")]
    configs = []
    for j, (domain, grid, mode) in enumerate(runs):
        text = CONFIG
        for old, new in (("interval:1", domain), ("grid = 32", f"grid = {grid}"),
                         ("t_end = 0.1", "t_end = 2e-3"), ("output_every = 10", "output_every = 1"),
                         ("= out\n", f"= out{j}\n"), (" 1:", f" {mode}:")):
            text = text.replace(old, new)
        configs.append(workdir / f"run{j}.cfg")
        configs[-1].write_text(text)
    code = ("import sys\n"
            "from rdbalance.cli import dispatch\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert dispatch(['simulate', cfg]) == 0\n"
            "    print('scipy loaded:', 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, configs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = [line.split()[-1] for line in proc.stdout.splitlines()
              if line.startswith("scipy loaded:")]
    assert loaded == ["False", "False", "True"]


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


def test_bundled_square_config_and_its_restart(tmp_path, capsys):
    # square.cfg writes snapshots; square_restart.cfg starts from the last
    import shutil
    from pathlib import Path

    data = Path(__file__).parent / "data"
    for name in ("four_species_unit.rdn", "square.cfg", "square_restart.cfg"):
        shutil.copy(data / name, tmp_path / name)
    assert dispatch(["simulate", str(tmp_path / "square.cfg")]) == 0
    assert dispatch(["simulate", str(tmp_path / "square_restart.cfg")]) == 0
    capsys.readouterr()
    final = (tmp_path / "out" / "square" / "snapshot_00000100.csv").read_text()
    start = (tmp_path / "out" / "square_restart" / "snapshot_00000000.csv").read_text()
    assert start.splitlines()[1:] == final.splitlines()[1:]
    fresh = DiagnosticsSeries.read_csv(tmp_path / "out" / "square" / "diag.csv")
    restart = DiagnosticsSeries.read_csv(tmp_path / "out" / "square_restart" / "diag.csv")
    assert np.array_equal(restart.masses[0], fresh.masses[-1])
    assert restart.l2[0] == fresh.l2[-1]
    assert dispatch(["fit", str(tmp_path / "out" / "square_restart" / "diag.csv"),
                     "--column", "L2sq"]) == 0
    rate = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    target = 2 * (2 * np.pi ** 2 + 4)
    assert abs(rate - target) <= 0.01 * target


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

def test_gap_box_domain(workdir, capsys):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "box:10,4,3", "--a-inf", "1,1,1,1"])
    assert code == 0
    lam = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert np.isclose(lam, (np.pi / 10) ** 2, atol=1e-9)


@pytest.mark.parametrize("domain", ["box:1,1,1", "box:1,1,1,1"])
def test_gap_with_one_slow_species_stops_at_mode_one(workdir, capsys, domain):
    # min d_i = 1e-4 keeps mu_k min d_i below the gap for thousands of modes;
    # only mode 0 and mode 1 can set it
    code = dispatch(["gap", str(workdir / "slow_swap.rdn"),
                     "--domain", domain, "--a-inf", "1,1,1,1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda_star = 0.971202848"
    assert [line.split(":")[0] for line in lines if line.startswith("mode ")] \
        == ["mode 0", "mode 1"]


def box_config(domain, grid, mode, t_end="0.01"):
    cfg = CONFIG.replace("domain = interval:1", f"domain = {domain}")
    cfg = cfg.replace("grid = 32", f"grid = {grid}").replace("t_end = 0.1", f"t_end = {t_end}")
    cfg = cfg.replace("output_every = 10", "output_every = 5")
    return cfg.replace("modes = 1:", f"modes = {mode}:")


def test_snapshot_restart_in_3d(workdir, capsys):
    (workdir / "box.cfg").write_text(box_config("box:1,0.5,2", "8,4,6", "(1,0,2)"))
    assert dispatch(["simulate", str(workdir / "box.cfg")]) == 0
    snap = sorted((workdir / "out").glob("snapshot_*.csv"))[-1]
    assert snap.read_text().splitlines()[1] == "x,y,z,A1,A2,A3,A4"
    cfg = "\n".join(l for l in box_config("box:1,0.5,2", "8,4,6", "(1,0,2)").splitlines()
                    if not l.startswith("species."))
    cfg = cfg.replace("output_dir = out", "output_dir = out2")
    (workdir / "restart.cfg").write_text(cfg + f"\ninitial_csv = out/{snap.name}\n")
    assert dispatch(["simulate", str(workdir / "restart.cfg")]) == 0
    first = DiagnosticsSeries.read_csv(workdir / "out" / "diag.csv")
    second = DiagnosticsSeries.read_csv(workdir / "out2" / "diag.csv")
    # the restart starts from the final state, bit for bit
    for name in ("masses", "entropy", "l2", "l4", "linf", "fisher", "reaction"):
        assert getattr(second, name)[0].tobytes() == getattr(first, name)[-1].tobytes()


def test_config_in_4d(workdir):
    from rdbalance.cli import load_config

    (workdir / "box4.cfg").write_text(box_config("box:1,1,1,1", "8", "(1,0,0,0)"))
    config = load_config(workdir / "box4.cfg")
    assert config.domain.extents == (1.0, 1.0, 1.0, 1.0)
    assert config.grid.shape == (8, 8, 8, 8)
    assert config.species_profiles["A2"].modes == (((1, 0, 0, 0), -0.01),)
    assert dispatch(["simulate", str(workdir / "box4.cfg")]) == 0
    series = DiagnosticsSeries.read_csv(workdir / "out" / "diag.csv")
    assert np.all(np.diff(series.l2) < 0)


@pytest.mark.parametrize("domain, token", [("interval:1", "(1:0.5"),
                                           ("interval:1", "1):0.5"),
                                           ("rect:1,1", "(1,2:0.5"),
                                           ("rect:1,1", "1,2):0.5"),
                                           ("interval:1", "((1):0.5")])
def test_unbalanced_mode_parentheses(workdir, capsys, domain, token):
    cfg = box_config(domain, "8", "(1)" if domain == "interval:1" else "(1,0)")
    cfg = "\n".join(f"species.A1.modes = {token}" if l.startswith("species.A1.modes")
                    else l for l in cfg.splitlines())
    (workdir / "paren.cfg").write_text(cfg)
    assert dispatch(["simulate", str(workdir / "paren.cfg")]) == 2
    assert f"bad mode entry {token!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line, lineno, message", [
    ("domain = disk:1", 2, "bad domain 'disk:1'"),
    ("domain = box:", 2, "bad domain 'box:'"),
    ("domain = box:1,1,1,1,1", 2, "bad domain 'box:1,1,1,1,1'"),
    ("domain = interval:1,2", 2, "bad domain 'interval:1,2'"),
    ("domain = rect:1", 2, "bad domain 'rect:1'"),
    ("domain = interval:-1", 2, "box sides must be positive"),
    ("grid = 3x3", 3, "bad grid '3x3'"),
    ("grid = 32,32", 3, "grid shape (32, 32) does not match a 1-d domain"),
    ("scheme = euler", 4, "scheme must be strang or imex"),
    ("dt = fast", 5, "could not convert string to float: 'fast'"),
    ("t_end = -1", 6, "must be positive, got -1"),
    ("output_every = 2.5", 7, "invalid literal for int() with base 10: '2.5'"),
    ("species.A1.base = one", 9, "could not convert string to float: 'one'"),
    ("species.A1.modes = 1:0.01:2", 10, "bad mode entry '1:0.01:2'"),
    ("species.A1.modes = (1,0):0.01", 10, "mode '(1,0):0.01' does not match a 1-d domain"),
    ("snapshot_every = -2", 17, "must be >= 0, got -2"),
])
def test_config_value_errors_name_their_line(workdir, capsys, line, lineno, message):
    lines = CONFIG.splitlines()
    key = line.split(" = ")[0]
    assert lines[lineno - 1].startswith(key + " = ")
    lines[lineno - 1] = line
    path = workdir / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert dispatch(["simulate", str(path)]) == 2
    assert f"error: {path}:{lineno}: {key}: {message}" in capsys.readouterr().err
