import fcntl
import gc
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rdbalance import DiagnosticsSeries
from rdbalance.cli import dispatch

from conftest import record_snapshots

DATA = Path(__file__).parent / "data"

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

PAIR_SOURCE = """\
species A1 A2
diffusion A1=1 A2=1
reaction 0 <-> A1 + A2 : kf=2 kb=1
"""

HUGE_COEFFICIENT = """\
species A1 A2
diffusion A1=1 A2=1
reaction 100000000000000000000000000000 A1 <-> A2 : kf=1 kb=1
"""

# an equilibrium of mass 3 needs A1 = 3e-616, below float range
SPAN = """\
species A1 A2 A3
diffusion A1=1 A2=1 A3=1
reaction A1 <-> A2 : kf=1e154 kb=1e-154
reaction A2 <-> A3 : kf=1e154 kb=1e-154
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
    (tmp_path / "pair_source.rdn").write_text(PAIR_SOURCE)
    (tmp_path / "huge.rdn").write_text(HUGE_COEFFICIENT)
    (tmp_path / "span.rdn").write_text(SPAN)
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
    assert values["A1"] - values["A3"] == pytest.approx(float(mass), rel=1e-9, abs=0)


def test_equilibrium_no_detailed_balance(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "triangle.rdn"),
                     "--masses", "3"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("kb", ["1.0000000015", "1.0000000025"])
def test_equilibrium_just_off_balance_names_the_cause(tmp_path, capsys, kb):
    # Newton matches the mass exactly; the flux residual (kb - 1) / 3 refuses
    path = tmp_path / "cycle.rdn"
    path.write_text(TRIANGLE.replace("kf=2 kb=1", f"kf=1 kb={kb}"))
    assert dispatch(["equilibrium", str(path), "--masses", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical failure: no detailed-balance equilibrium: relative flux residual")


@pytest.mark.parametrize("network, masses", [
    ("four_species_unit.rdn", "1,2,3"),
    (TRIANGLE.replace("kf=2 kb=1", "kf=1 kb=1.00000000015"), "3"),
])
def test_gap_accepts_the_printed_equilibrium(tmp_path, capsys, network, masses):
    # equilibrium prints a* exactly (%.17g), and gap --a-inf applies the rule
    # equilibrium applied to it: the 3-cycle's residual 5e-11 passes both
    path = Path(__file__).parent / "data" / network
    if not network.endswith(".rdn"):
        path = tmp_path / "cycle.rdn"
        path.write_text(network)
    assert dispatch(["equilibrium", str(path), "--masses", masses]) == 0
    printed = dict(line.split(" = ") for line in
                   capsys.readouterr().out.splitlines())
    a_inf = ",".join(value for name, value in printed.items() if name.startswith("A"))
    argv = ["gap", str(path), "--domain", "interval:1"]
    assert dispatch(argv + ["--masses", masses]) == 0
    from_masses = capsys.readouterr()
    assert dispatch(argv + ["--a-inf", a_inf]) == 0
    assert capsys.readouterr() == from_masses


def test_equilibrium_wrong_mass_count(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", "3,4"])
    assert code == 2


@pytest.mark.parametrize("network, violation", [
    ("cubic.rdn", "non-quadratic: |alpha| = 3"),
    ("huge.rdn", "non-quadratic: |alpha| = 100000000000000000000000000000"),
])
@pytest.mark.parametrize("command", [
    ["equilibrium", "--masses", "1"],
    ["gap", "--domain", "interval:1", "--masses", "1"],
    ["gap", "--domain", "interval:1", "--a-inf", "1,1"],
])
def test_every_command_refuses_an_inadmissible_network(workdir, capsys, network,
                                                       violation, command):
    # one admissibility check, the one simulate makes, before any arithmetic
    argv = command[:1] + [str(workdir / network)] + command[1:]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"violation: reaction 1: {violation}\n"


@pytest.mark.parametrize("command", [["equilibrium"], ["gap", "--domain", "interval:1"]])
def test_equilibrium_past_float_range_is_a_numerical_failure(workdir, capsys, command):
    # a* = (3e-616, 3e-308, 3): Newton matches the mass, and A1 underflows to 0
    argv = command[:1] + [str(workdir / "span.rdn"), "--masses", "3"] + command[1:]
    assert dispatch(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: a* in [0, 3] is not strictly "
                            "positive and finite\n")


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
    assert capsys.readouterr().out.startswith("lambda_star = 1.000000000e+00\n")


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


def test_gap_bound_at_a_tiny_equilibrium(workdir, capsys):
    # C_M (sum 1/a)^2 taken as one product underflowed to a bound of 0 here
    code = dispatch(["gap", str(workdir / "four_species.rdn"), "--domain", "interval:1",
                     "--a-inf", "1e-100,1e-100,1e-100,1e-100"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda_star = 4.000000000e-100\n")
    assert "analytic_bound = 4.000000000e-100\n" in out


def test_gap_where_the_fluxes_underflow(workdir, capsys):
    # kf a*^alpha = 1e-400 is 0 in floats: L's entries are formed in logs
    code = dispatch(["gap", str(workdir / "four_species.rdn"), "--domain", "interval:1",
                     "--a-inf", "1e-200,1e-200,1e-200,1e-200"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda_star = 4.000000000e-200\n")
    assert "analytic_bound = 4.000000000e-200\n" in out


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


def test_equilibrium_of_a_negative_mixed_sign_mass(workdir, capsys):
    # 0 <-> A1 + A2 conserves m1 = a1 - a2; at a1 a2 = kf / kb = 2, m1 = -1 is (1, 2)
    code = dispatch(["equilibrium", str(workdir / "pair_source.rdn"), "--masses=-1"])
    assert code == 0
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in capsys.readouterr().out.strip().splitlines()}
    assert values["m1"] == -1.0
    assert abs(values["A1"] * values["A2"] - 2.0) <= 1e-14
    assert abs(values["A1"] - values["A2"] + 1.0) <= 1e-14


def test_gap_of_a_negative_mixed_sign_mass(workdir, capsys):
    code = dispatch(["gap", str(workdir / "pair_source.rdn"),
                     "--domain", "interval:1", "--masses=-1"])
    assert code == 0
    assert capsys.readouterr().out.startswith("lambda_star = 3.000000000e+00\n")


def test_simulate_with_a_negative_mixed_sign_mass(workdir):
    head = CONFIG.split("species.A1")[0].replace("four_species.rdn", "pair_source.rdn")
    (workdir / "pair.cfg").write_text(head + "species.A1.base = 1.0\n"
                                      "species.A1.modes = 1:0.05\nspecies.A2.base = 2.0\n")
    assert dispatch(["simulate", str(workdir / "pair.cfg")]) == 0
    series = DiagnosticsSeries.read_csv(workdir / "out" / "diag.csv")
    assert series.masses.shape == (11, 1)
    assert np.max(np.abs(series.masses + 1.0)) <= 1e-12


@pytest.mark.parametrize("a_inf", ["inf,1,1,1", "nan,1,1,1"])
def test_gap_refuses_non_finite_equilibrium(workdir, capsys, a_inf):
    code = dispatch(["gap", str(workdir / "four_species.rdn"),
                     "--domain", "interval:1", "--a-inf", a_inf])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a_inf must be a strictly positive, finite vector" in captured.err


def write_layered_network(path):
    # X_l + Y_l <-> X_{l+1} + Y_{l+1} for 16 layers has 2^16 extreme rays
    species = [f"{s}{l}" for l in range(16) for s in "XY"]
    lines = [f"species {' '.join(species)}",
             "diffusion " + " ".join(f"{name}=1" for name in species)]
    lines += [f"reaction X{l} + Y{l} <-> X{l + 1} + Y{l + 1} : kf=1 kb=1" for l in range(15)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_equilibrium_refuses_too_many_extreme_rays(tmp_path, capsys):
    code = dispatch(["equilibrium", write_layered_network(tmp_path / "layered.rdn"),
                     "--masses", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too many extreme rays" in captured.err


def test_gap_at_a_given_state_needs_no_extreme_rays(tmp_path, capsys):
    # mode 0 reads the exact rank of W, which one elimination gives
    code = dispatch(["gap", write_layered_network(tmp_path / "layered.rdn"),
                     "--domain", "interval:1", "--a-inf", ",".join(["1"] * 32)])
    assert code == 0
    assert "lambda_star = 7.685887839e-02" in capsys.readouterr().out.splitlines()


def test_gap_refuses_fluxes_past_float_range(workdir, capsys):
    # a balanced state whose fluxes 1e400 overflow: named, not a NaN residual
    code = dispatch(["gap", str(workdir / "four_species.rdn"), "--domain", "interval:1",
                     "--a-inf", "1e200,1e200,1e200,1e200"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reaction fluxes at a* overflow float range" in captured.err


@pytest.mark.parametrize("a_inf, message", [
    # balanced, with finite fluxes 1e290, but forward / a_2 = 1e350 overflows L
    ("1e100,1e-60", r"linearised reaction matrix at a\* overflows float range"),
], ids=["overflow"])
@pytest.mark.parametrize("warnings_flags", [[], ["-W", "error"]])
def test_gap_refuses_a_linearisation_past_float_range(warnings_flags, a_inf, message):
    # refused by name, not a NaN or lost lambda_star or a RuntimeWarning
    proc = subprocess.run(
        [sys.executable, *warnings_flags, "-m", "rdbalance", "gap",
         str(Path(__file__).parent / "data" / "big_rates.rdn"),
         "--domain", "interval:1", "--a-inf", a_inf], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(f"numerical failure: {message}\n", proc.stderr)


@pytest.mark.parametrize("warnings_flags", [[], ["-W", "error"]])
def test_gap_of_a_linearisation_near_float_range(warnings_flags):
    # balanced, with S's entries about 1e270 and |S| past a plain sum of
    # squares: with d = 1 the mode-1 gap is mu_1 = pi^2, which the singular
    # values of the factor keep and the eigenvalues of S lose
    proc = subprocess.run(
        [sys.executable, *warnings_flags, "-m", "rdbalance", "gap",
         str(Path(__file__).parent / "data" / "big_rates.rdn"),
         "--domain", "interval:1", "--a-inf", "1e20,1e20"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "lambda_star = 9.869604401e+00", "modes_examined = 2",
        "mode 0: mu = 0.000000000e+00, gap = 2.000000000e+270",
        "mode 1: mu = 9.869604401e+00, gap = 9.869604401e+00"]


@pytest.mark.parametrize("network, args, lambda_star", [
    # A1 <-> A2 at k1 = 1e10 and A2 <-> A3 at k2 = 1e-10: the gap is
    # 3 k1 k2 / (k1 + k2 + sqrt(k1^2 - k1 k2 + k2^2)) = 1.5e-10
    ("stiff_chain.rdn", ["--domain", "interval:1", "--a-inf", "1,1,1"], "1.500000000e-10"),
    ("stiff_chain.rdn", ["--domain", "interval:1", "--masses", "3"], "1.500000000e-10"),
    # on a long interval the mode-1 gap mu_1 = pi^2 / l^2 lies far below 4
    ("four_species_unit.rdn", ["--domain", "interval:1e7", "--a-inf", "1,1,1,1"],
     "9.869604401e-14"),
    ("four_species_unit.rdn", ["--domain", "interval:1e8", "--a-inf", "1,1,1,1"],
     "9.869604401e-16"),
    ("four_species_unit.rdn", ["--domain", "interval:1e10", "--a-inf", "1,1,1,1"],
     "9.869604401e-20"),
], ids=["stiff", "stiff-masses", "interval-1e7", "interval-1e8", "interval-1e10"])
def test_gap_far_below_the_reaction_scale(capsys, network, args, lambda_star):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["gap", str(Path(__file__).parent / "data" / network), *args]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines()[0], captured.err) == (f"lambda_star = {lambda_star}", "")


@pytest.mark.parametrize("network, domain, a_inf, message", [
    # kf = kb = 1e-300 at a* = 1e-30: B's entries 1e-165 square to below float range
    ("slow.rdn", "interval:1", "1e-30,1e-30,1e-30,1e-30",
     "mode 0 gap 0.000e+00 underflows float range (mu = 0.000e+00, "
     "largest entry of S 0.000e+00)"),
    # mu_1 = pi^2 / 1e340 is itself below float range
    ("four_species.rdn", "interval:1e170", "1,1,1,1",
     "mode 1 gap 0.000e+00 underflows float range (mu = 0.000e+00, "
     "largest entry of S 1.000e+00)"),
], ids=["mode-0", "mode-1"])
def test_gap_refuses_a_block_gap_that_underflows(workdir, capsys, network, domain, a_inf,
                                                  message):
    (workdir / "slow.rdn").write_text(FOUR_SPECIES.replace("kf=1 kb=1", "kf=1e-300 kb=1e-300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["gap", str(workdir / network), "--domain", domain,
                         "--a-inf", a_inf]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"numerical failure: {message}\n")


@pytest.mark.parametrize("warnings_flags", [[], ["-W", "error"]])
def test_heuristic_dt_refuses_a_reaction_scale_past_float_range(warnings_flags):
    # at a* = (1e20, 1e20) |L| overflows a plain sum of squares: refused by
    # name, not a RuntimeWarning, a zero dt and a ZeroDivisionError
    proc = subprocess.run(
        [sys.executable, *warnings_flags, "-m", "rdbalance", "simulate",
         str(Path(__file__).parent / "data" / "big_rates.cfg")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: default_dt: the reaction scale |L| "
                           "at a* overflows float range (give dt)\n")


@pytest.mark.parametrize("warnings_flags", [[], ["-W", "error"]])
def test_heuristic_dt_refuses_an_unbounded_step_count(warnings_flags):
    # |L| = 2e100 is finite, but default_dt = 5e-102 asks t_end = 0.01 for
    # about 2e99 steps: refused at once by name, not run until killed
    proc = subprocess.run(
        [sys.executable, *warnings_flags, "-m", "rdbalance", "simulate",
         str(Path(__file__).parent / "data" / "huge_rates.cfg")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: default_dt: t_end takes 2e+99 steps at "
                           "|L| = 2e+100, more than 1e+09 (give dt)\n")


@pytest.mark.parametrize("a2, code, out, err", [
    ("1.000001e-155", 3, [], "numerical failure: state is not an equilibrium "
                             "(relative flux residual 1.000e-06)\n"),
    ("2e-155", 3, [], "numerical failure: state is not an equilibrium "
                      "(relative flux residual 5.000e-01)\n"),
    ("1e-155", 0, ["lambda_star = 1.000010000e-150", "modes_examined = 1",
                   "mode 0: mu = 0.000000000e+00, gap = 1.000010000e-150"], ""),
])
def test_gap_decides_balance_where_the_fluxes_are_tiny(capsys, a2, code, out, err):
    # 0 <-> A1 + A2 at kf = 1e-305: each one-sided flux about 1e-305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["gap", str(Path(__file__).parent / "data" / "tiny_rates.rdn"),
                         "--domain", "interval:1", "--a-inf", f"1e-150,{a2}"]) == code
    captured = capsys.readouterr()
    assert (captured.out.splitlines(), captured.err) == (out, err)


def scale_tiny_at(exponent):
    """tests/data/scale_tiny.cfg with its state scale 1e-150 moved to 10^exponent."""
    text = (Path(__file__).parent / "data" / "scale_tiny.cfg").read_text()
    return text.replace("e-152", f"e{exponent - 2}").replace("e-150", f"e{exponent}")


@pytest.mark.parametrize("exponent, config", [(80, "scale80"), (-100, None),
                                              (-150, "scale_tiny")])
def test_simulate_is_covariant_under_state_scale(tmp_path, capsys, exponent, config):
    # each diag.csv column is the unit-scale run's times s^power: the norms
    # are formed from r = h / a*, so |h|^4 neither overflows at 1e80 nor
    # underflows at 1e-100 (L4 = 0) and 1e-150
    import shutil

    data = Path(__file__).parent / "data"

    def run(name, text):
        (tmp_path / name).mkdir()
        shutil.copy(data / "exchange.rdn", tmp_path / name / "exchange.rdn")
        (tmp_path / name / "run.cfg").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["simulate", str(tmp_path / name / "run.cfg")]) == 0
        [diag] = (tmp_path / name / "out").glob("*/diag.csv")
        return DiagnosticsSeries.read_csv(diag)

    unit = run("unit", scale_tiny_at(0))
    scaled = run("scaled", scale_tiny_at(exponent) if config is None
                 else (data / f"{config}.cfg").read_text())
    capsys.readouterr()
    powers = {"t": 0.0, "L2": 0.5, "L4": 0.25}
    assert unit.header() == scaled.header() == ["t", "M1", "H", "L2", "L4", "Linf",
                                                "fisher", "reaction"]
    assert np.all(unit.table[:, 1:] > 0)
    for name in unit.header():
        np.testing.assert_allclose(
            scaled.column(name), unit.column(name) * 10.0 ** (exponent * powers.get(name, 1.0)),
            rtol=5e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("warnings_filter", ["default", "error"])
def test_simulate_refuses_a_norm_past_float_range(tmp_path, capsys, warnings_filter):
    # L4's sum a* r^4 |cell| is 5e308 at t = 0: refused by name, with no
    # diag.csv, not written as inf
    import shutil

    data = Path(__file__).parent / "data"
    for name in ("exchange.rdn", "norm_overflow.cfg", "norm_overflow.csv"):
        shutil.copy(data / name, tmp_path / name)
    with warnings.catch_warnings():
        warnings.simplefilter(warnings_filter)
        assert dispatch(["simulate", str(tmp_path / "norm_overflow.cfg")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: diag.csv column L4 is inf at t = 0: "
                            "past float range\n")
    assert not (tmp_path / "out" / "norm_overflow" / "diag.csv").exists()


def test_gap_prints_a_tiny_gap_in_full(tmp_path, capsys):
    # %.9f printed this gap as 0.000000000
    (tmp_path / "slow.rdn").write_text(
        "species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A2 : kf=1e-12 kb=1e-12\n")
    code = dispatch(["gap", str(tmp_path / "slow.rdn"), "--domain", "interval:1",
                     "--a-inf", "1,1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "lambda_star = 2.000000000e-12", "modes_examined = 1",
        "mode 0: mu = 0.000000000e+00, gap = 2.000000000e-12"]


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


def test_a_runs_own_snapshot_restarts(workdir, capsys):
    # a front, every species 1 on x < 1/4 and 0 beyond: two strang steps leave
    # cells at -2.2e-16, roundoff the stepper admits, so its reader must too
    rows = "".join(f"{(j + 0.5) / 64!r}" + f",{int(j < 16)}" * 4 + "\n" for j in range(64))
    (workdir / "front.csv").write_text("x,A1,A2,A3,A4\n" + rows)
    cfg = ("network = four_species.rdn\ndomain = interval:1\ngrid = 64\nscheme = strang\n"
           "dt = 1e-3\nt_end = 0.002\noutput_dir = {}\ninitial_csv = {}\n")
    (workdir / "front.cfg").write_text(cfg.format("out", "front.csv"))
    assert dispatch(["simulate", str(workdir / "front.cfg")]) == 0
    snap = workdir / "out" / "snapshot_00000002.csv"
    assert np.loadtxt(snap, delimiter=",", skiprows=2).min() < 0
    (workdir / "again.cfg").write_text(cfg.format("out2", "out/" + snap.name))
    assert dispatch(["simulate", str(workdir / "again.cfg")]) == 0
    first = DiagnosticsSeries.read_csv(workdir / "out" / "diag.csv")
    second = DiagnosticsSeries.read_csv(workdir / "out2" / "diag.csv")
    assert np.array_equal(second.masses[0], first.masses[-1])


def test_bad_mass_vector(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--masses", "1,x,3"])
    assert code == 2
    assert capsys.readouterr().err == "error: bad mass vector: '1,x,3'\n"


def test_fit_window_needs_two_bounds(workdir, capsys):
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    capsys.readouterr()
    assert dispatch(["fit", str(workdir / "out" / "diag.csv"), "--column", "L2",
                     "--window", "0.05"]) == 2
    assert capsys.readouterr().err == "error: window must be 'a,b'\n"


def printed_values(out):
    return {line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in out.strip().splitlines()}


def test_equilibrium_from_initial(workdir, capsys):
    code = dispatch(["equilibrium", str(workdir / "four_species.rdn"),
                     "--from-initial", str(workdir / "run.cfg")])
    assert code == 0
    values = printed_values(capsys.readouterr().out)
    assert np.isclose(values["A1"], 1.0, rtol=1e-10)
    # on interval:2 the masses are per unit measure, so a* is the initial
    # equilibrium (1, 2) itself, and the printed masses give it back
    network = str(DATA / "exchange.rdn")
    assert dispatch(["equilibrium", network,
                     "--from-initial", str(DATA / "exchange_interval2.cfg")]) == 0
    values = printed_values(capsys.readouterr().out)
    for name, want in (("A1", 1.0), ("A2", 2.0)):
        assert abs(values[name] - want) <= 4 * np.finfo(float).eps * want
    assert values["M12"] == 3.0
    assert dispatch(["equilibrium", network, "--masses", repr(values["M12"])]) == 0
    again = printed_values(capsys.readouterr().out)
    assert (again["A1"], again["A2"]) == (values["A1"], values["A2"])


def test_simulate_at_the_equilibrium_of_a_non_unit_interval(tmp_path, capsys):
    import shutil

    for name in ("exchange.rdn", "exchange_interval2.cfg"):
        shutil.copy(DATA / name, tmp_path / name)
    assert dispatch(["simulate", str(tmp_path / "exchange_interval2.cfg")]) == 0
    series = DiagnosticsSeries.read_csv(tmp_path / "out" / "exchange_interval2" / "diag.csv")
    assert np.all(series.masses == 3.0)
    assert np.all(series.entropy <= 1e-30) and np.all(series.linf <= 1e-15)


def test_usage_error_exits_2(workdir):
    assert dispatch(["gap", str(workdir / "four_species.rdn")]) == 2


def test_dispatches_share_no_state(workdir, capsys):
    # the parser is built once per process: a --window given to one call
    # must not reach the next, and a usage error still reports as usage
    assert dispatch(["simulate", str(workdir / "run.cfg")]) == 0
    diag = str(workdir / "out" / "diag.csv")
    assert dispatch(["fit", diag, "--column", "L2sq", "--window", "0.01,0.1"]) == 0
    windowed = capsys.readouterr().out
    assert dispatch(["fit", diag, "--column", "L2sq"]) == 0
    full_window = capsys.readouterr().out
    assert full_window != windowed  # the window drops the first of 11 rows
    first_ever = subprocess.run([sys.executable, "-m", "rdbalance", "fit", diag,
                                 "--column", "L2sq"], capture_output=True, text=True)
    assert first_ever.returncode == 0
    assert full_window == first_ever.stdout
    assert dispatch(["fit", diag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rdbalance fit ")
    assert "the following arguments are required: --column" in captured.err


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
    pytest.importorskip("scipy")  # which the last run has
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


@pytest.mark.parametrize("name", ["perturbed_imex", "interval256"])
def test_bundled_imex_and_dct_configs(tmp_path, capsys, name):
    # perturbed.cfg stepped by imex, and on 256 cells (the DCT path)
    import shutil

    if name == "interval256":
        pytest.importorskip("scipy")
    data = Path(__file__).parent / "data"
    for file in ("four_species_unit.rdn", f"{name}.cfg"):
        shutil.copy(data / file, tmp_path / file)
    assert dispatch(["simulate", str(tmp_path / f"{name}.cfg")]) == 0
    capsys.readouterr()
    assert dispatch(["fit", str(tmp_path / "out" / name / "diag.csv"),
                     "--column", "L2sq"]) == 0
    rate = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    target = 2 * (np.pi ** 2 + 4)
    assert abs(rate - target) <= 0.01 * target


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


def test_diag_csv_of_a_network_without_conserved_masses(workdir, capsys):
    # 0 <-> A1 and 0 <-> A2 conserve nothing: diag.csv has no mass columns
    text = CONFIG.replace("four_species.rdn", "sources.rdn").replace("= out\n", "= out_q0\n")
    kept = [line for line in text.splitlines(True)
            if not line.startswith(("species.A3", "species.A4"))]
    (workdir / "q0.cfg").write_text("".join(kept))
    assert dispatch(["simulate", str(workdir / "q0.cfg")]) == 0
    diag = workdir / "out_q0" / "diag.csv"
    comment, header = diag.read_text().splitlines()[:2]
    assert header == "t,H,L2,L4,Linf,fisher,reaction"
    series = DiagnosticsSeries.read_csv(diag)
    assert series.table.shape == (11, 7) and series.masses.shape == (11, 0)
    series.write_csv(workdir / "copy.csv", comment=comment[2:])
    assert (workdir / "copy.csv").read_bytes() == diag.read_bytes()
    assert np.array_equal(DiagnosticsSeries.read_csv(workdir / "copy.csv").table, series.table)
    assert dispatch(["fit", str(diag), "--column", "L2sq"]) == 0


def test_readme_python_example(monkeypatch):
    # the documented example runs as written, from the repository root
    root = Path(__file__).resolve().parents[1]
    example = (root / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    assert scope["report"].lambda_star == pytest.approx(4.0, rel=1e-12)
    assert scope["report"].analytic_bound == pytest.approx(4.0, rel=1e-12)
    target = 2 * (np.pi ** 2 + 4)
    assert abs(scope["fit"].rate - target) <= 0.05 * target


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
    assert lines[0] == "lambda_star = 9.712028479e-01"
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
    assert config.grid.domain.extents == (1.0, 1.0, 1.0, 1.0)
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
    ("species.A1.base = nan", 9, "must be finite, got nan"),
    ("species.A2.modes = 1:1e999", 12, "must be finite, got 1e999"),
    ("species.A1.modes = 1:0.01:2", 10, "bad mode entry '1:0.01:2'"),
    ("species.A1.modes = (1,0):0.01", 10, "mode '(1,0):0.01' does not match a 1-d domain"),
    ("snapshot_every = -2", 17, "must be >= 0, got -2"),
    ("grid = 3", 3, "need at least 4 cells per axis, got (3,)"),
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


@pytest.mark.parametrize("edits, message", [
    ({18: "bogus"}, "{path}:18: expected key = value"),
    ({18: "dt = 2e-3"}, "{path}:18: duplicate key dt"),
    ({18: "species.A1.base.x = 1"}, "{path}:18: bad species key 'species.A1.base.x'"),
    ({7: "zeta = 1", 18: "alpha = 2"}, "{path}:7: unknown config keys: ['alpha', 'zeta']"),
    ({6: "# t_end left out"}, "{path}: missing config key 't_end'"),
    ({18: "initial_csv = cells.csv"},
     "{path}:18: give either initial_csv or species.* keys, not both"),
    ({k: "#" for k in range(9, 17)},
     "{path}: missing initial data (species.*.base or initial_csv)"),
    ({11: "# base left out"}, "{path}:12: species.A2.base is required"),
    ({15: "#", 16: "#"}, "{path}: missing initial data for species ['A4']"),
    ({18: "species.B1.base = 1", 19: "species.B0.base = 1"},
     "{path}:18: initial data for unknown species ['B0', 'B1']"),
])
def test_config_refusals_name_their_file(workdir, capsys, edits, message):
    # the refusals of load_config and of the species check name the file,
    # and the line where the key they refuse stands
    lines = CONFIG.splitlines() + ["", ""]
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path = workdir / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert dispatch(["simulate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("line, lineno", [("species.A2.base = -1.0", 11),
                                          ("species.A2.modes = 1:-2", 12)])
def test_negative_initial_value_names_its_species(workdir, monkeypatch, capsys,
                                                  line, lineno):
    lines = CONFIG.splitlines()
    lines[lineno - 1] = line
    (workdir / "bad.cfg").write_text("\n".join(lines) + "\n")
    # refused before any snapshot is taken: no out/, inline or with a writer
    monkeypatch.setattr("rdbalance.cli._WRITER_MIN_VALUES", 1)
    for cpus in ((0,), (0, 1)):
        started = writers_started(monkeypatch, cpus)
        assert dispatch(["simulate", str(workdir / "bad.cfg")]) == 2
        assert capsys.readouterr().err == \
            "error: negative initial value for species A2 at cell (0,)\n"
        assert not (workdir / "out").exists()
        assert len(started) == len(cpus) - 1
        for proc in started:
            assert_reaped(proc, 0)


# --------------------------------------------------------------------------
# Snapshots of 2^14 values or more go to a writer process (two usable CPUs).


def writer_config(domain, grid, mode, t_end="0.004", snapshot_every=1):
    # a run of at least 2^14 values (cells times four species) per snapshot,
    # with an output at every step
    cfg = box_config(domain, grid, mode, t_end=t_end)
    return cfg.replace("output_every = 5", "output_every = 1").replace(
        "snapshot_every = 0", f"snapshot_every = {snapshot_every}")


def square64_config(t_end="0.004", snapshot_every=1):
    # 64^2 cells times four species: 16384 values per snapshot
    return writer_config("rect:1,1", "64", "(1,1)", t_end, snapshot_every)


# grids whose final snapshots split between the writer and the run at
# different places: 64^2 and 16^3 between two slabs of the first axis, the
# interval between two cells, 65 x 64 inside a slab (row 2080 = 32.5 x 64);
# the 16^3 run takes its step from the heuristic, as a run without dt
WRITER_RUNS = {
    "square64": square64_config(),
    "interval4096": writer_config("interval:1", "4096", "1"),
    "rect65x64": writer_config("rect:1,1", "65,64", "(1,1)"),
    "cube16_no_dt": writer_config("box:1,1,1", "16", "(1,1,1)").replace("dt = 1e-3\n", ""),
}


def writers_started(monkeypatch, cpus=(0, 1)):
    """The processes of the TableWriters the CLI starts, with ``cpus`` usable."""
    import rdbalance.cli as cli

    started = []

    class Recorded(cli.TableWriter):
        def __init__(self):
            super().__init__()
            started.append(self._proc)

    monkeypatch.setattr(cli, "TableWriter", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    return started


def assert_reaped(proc, returncode):
    assert proc.returncode == returncode
    assert proc.stdin.closed and proc.stderr.closed


@pytest.mark.parametrize("run", WRITER_RUNS)
def test_writer_process_writes_the_inline_bytes(workdir, monkeypatch, capsys, run):
    import rdbalance.cli as cli
    from rdbalance import __version__, write_snapshot_csv

    if run == "interval4096":
        pytest.importorskip("scipy")  # an axis over 192 cells: the DCT path
    snapshots, halves, results = [], [], []
    real_simulate, real_write_table = cli.simulate, cli.write_table

    def recorded(*args, on_snapshot, **kw):
        results.append(real_simulate(*args, on_snapshot=record_snapshots(snapshots, on_snapshot),
                                     **kw))
        return results[-1]

    monkeypatch.setattr(cli, "simulate", recorded)
    monkeypatch.setattr(cli, "write_table", lambda *args, start, **kw: (
        halves.append(start), real_write_table(*args, start=start, **kw)))
    (workdir / "sq.cfg").write_text(WRITER_RUNS[run])
    started = writers_started(monkeypatch)
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 0
    assert len(started) == 1
    assert_reaped(started[0], 0)
    written = sorted((workdir / "out").glob("snapshot_*.csv"))
    assert [p.name for p in written] == [f"snapshot_{k:08d}.csv" for k in range(len(snapshots))]
    assert len(snapshots) == 5 + (run == "cube16_no_dt")  # 4 steps of 1e-3, 5 of 8e-4
    heuristic = [f"dt = {results[0].dt:.6g} (heuristic)"] if run == "cube16_no_dt" else []
    assert capsys.readouterr().out.splitlines() == heuristic + [
        f"wrote {workdir / 'out' / name}" for name in ["diag.csv"] + [p.name for p in written]]
    # this run formatted the rows from the middle of the final snapshot on
    assert halves == [(snapshots[-1].grid.n_cells + 1) // 2]
    comment = f"rdbalance {__version__} {cli.load_config(workdir / 'sq.cfg').config_hash}"
    for path, snap in zip(written, snapshots, strict=True):
        write_snapshot_csv(workdir / "inline.csv", snap, ["A1", "A2", "A3", "A4"], comment)
        assert path.read_bytes() == (workdir / "inline.csv").read_bytes()

    # the same run with one usable CPU formats inline, to the same bytes
    (workdir / "out").rename(workdir / "out_writer")
    assert not writers_started(monkeypatch, cpus=(0,))
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 0
    inline = sorted(p.name for p in (workdir / "out").iterdir())
    assert inline == sorted(p.name for p in (workdir / "out_writer").iterdir())
    for name in inline:
        assert (workdir / "out" / name).read_bytes() == \
            (workdir / "out_writer" / name).read_bytes()


@pytest.mark.parametrize("step", [0, 4])  # the first and the last snapshot
def test_writer_failure_names_the_file(workdir, monkeypatch, capsys, step):
    (workdir / "sq.cfg").write_text(square64_config())
    taken = workdir / "out" / f"snapshot_{step:08d}.csv"
    taken.mkdir(parents=True)  # a directory stands where the file goes
    started = writers_started(monkeypatch)
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(taken) in captured.err
    assert_reaped(started[0], 1)
    assert not (workdir / "out" / "diag.csv").exists()  # as inline


@pytest.mark.parametrize("half", ["writer", "run"])
def test_final_snapshot_failure_in_either_half(workdir, monkeypatch, capsys, half):
    # a directory stands where one half of the final snapshot goes: the
    # writer's first rows go to the snapshot's file, the run's own rows to a
    # part file beside it, appended to the snapshot once both are written
    (workdir / "sq.cfg").write_text(square64_config())
    final = workdir / "out" / "snapshot_00000004.csv"
    blocked = final if half == "writer" else final.with_name(final.name + ".part")
    blocked.mkdir(parents=True)
    started = writers_started(monkeypatch)
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(final) in captured.err
    assert ".part" not in captured.err
    assert_reaped(started[0], 1 if half == "writer" else 0)
    # no part file is left, nor a final snapshot that holds only the writer's
    # rows, nor diag.csv, as inline
    left = {p.name for p in (workdir / "out").iterdir()}
    assert left == {f"snapshot_{k:08d}.csv" for k in range(4)} | {blocked.name}


@pytest.mark.parametrize("cpus", [(0,), (0, 1)])
def test_diag_failure_leaves_whole_snapshots(workdir, monkeypatch, capsys, cpus):
    # a directory stands at diag.csv: the run fails after its last snapshot,
    # which is whole on both paths, joined from its halves through the writer
    (workdir / "sq.cfg").write_text(square64_config())
    assert not writers_started(monkeypatch, cpus=(0,))
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 0
    (workdir / "out").rename(workdir / "out_whole")
    capsys.readouterr()
    (workdir / "out" / "diag.csv").mkdir(parents=True)
    started = writers_started(monkeypatch, cpus)
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(workdir / "out" / "diag.csv") in captured.err
    assert len(started) == (len(cpus) >= 2)
    for proc in started:
        assert_reaped(proc, 0)
    names = sorted(p.name for p in (workdir / "out").glob("snapshot_*"))
    assert names == [f"snapshot_{k:08d}.csv" for k in range(5)]
    for name in names:
        assert (workdir / "out" / name).read_bytes() == (workdir / "out_whole" / name).read_bytes()


def pipe_size(fd):
    return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)


def test_writer_pipe_holds_a_2_16_value_job(tmp_path, monkeypatch):
    # so the first send returns while the writer process is still starting
    import pickle

    from rdbalance.csvtable import _PIPE_BYTES, _PIPE_CAP, TableWriter, write_table

    rng = np.random.default_rng(16)
    columns = [1 + 0.01 * rng.standard_normal(128 * 128) for _ in range(4)]
    axes = [(np.arange(128) + 0.5) / 128] * 2
    header = ["x", "y", "A1", "A2", "A3", "A4"]
    jobs = []
    real_dump = pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda job, fh, protocol: (
        jobs.append(len(pickle.dumps(job, protocol))), real_dump(job, fh, protocol)))
    with TableWriter() as writer:
        size = pipe_size(writer._proc.stdin.fileno())
        writer.send(tmp_path / "sent.csv", header, columns, axes, comment="c")
    assert size >= min(_PIPE_BYTES, int(Path(_PIPE_CAP).read_text()))
    assert len(jobs) == 1 and 2 ** 19 < jobs[0] <= _PIPE_BYTES
    write_table(tmp_path / "inline.csv", header, columns, axes, comment="c")
    assert (tmp_path / "sent.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


@pytest.mark.parametrize("refusal", ["no fcntl", "no F_SETPIPE_SZ", "F_SETPIPE_SZ refused",
                                     "no cap", "cap below the pipe"])
def test_writer_pipe_left_as_it_is_when_refused(workdir, monkeypatch, refusal):
    # the writer keeps the default pipe, and the run writes the same bytes
    import errno

    import rdbalance.cli as cli

    ends = os.pipe()
    default = pipe_size(ends[1])
    for fd in ends:
        os.close(fd)
    (workdir / "sq.cfg").write_text(square64_config())
    assert not writers_started(monkeypatch, cpus=(0,))
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 0
    (workdir / "out").rename(workdir / "out_inline")

    started, sizes = writers_started(monkeypatch), []

    class Sized(cli.TableWriter):
        def __init__(self):
            super().__init__()
            sizes.append(pipe_size(self._proc.stdin.fileno()))

    monkeypatch.setattr(cli, "TableWriter", Sized)
    if refusal == "no fcntl":
        monkeypatch.setitem(sys.modules, "fcntl", None)
    elif refusal == "no F_SETPIPE_SZ":
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ")
    elif refusal == "F_SETPIPE_SZ refused":
        real_fcntl = fcntl.fcntl

        def refused(fd, cmd, arg=0):
            if cmd == fcntl.F_SETPIPE_SZ:
                raise OSError(errno.EPERM, os.strerror(errno.EPERM))
            return real_fcntl(fd, cmd, arg)

        monkeypatch.setattr(fcntl, "fcntl", refused)
    else:
        cap = workdir / "pipe-max-size"
        if refusal == "cap below the pipe":
            cap.write_text(f"{default // 2}\n")
        monkeypatch.setattr("rdbalance.csvtable._PIPE_CAP", str(cap))
    assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 0
    assert_reaped(started[0], 0)
    assert sizes == [default]
    names = sorted(p.name for p in (workdir / "out").iterdir())
    assert names == sorted(p.name for p in (workdir / "out_inline").iterdir())
    for name in names:
        assert (workdir / "out" / name).read_bytes() == \
            (workdir / "out_inline" / name).read_bytes()


@pytest.mark.parametrize("cpus", [(0,), (0, 1)])
def test_writer_reaped_when_the_run_fails(workdir, monkeypatch, capsys, cpus):
    # with almost no diffusion, one forward-Euler step of length 1 drives A1
    # below zero where A1 A3 >> A2 A4; the initial snapshot is written first,
    # inline on one CPU and by the writer on two, so both leave the same files
    network = FOUR_SPECIES.replace("A1=1 A2=1 A3=1 A4=1",
                                   "A1=1e-6 A2=1e-6 A3=1e-6 A4=1e-6")
    (workdir / "still.rdn").write_text(network)
    cfg = square64_config(t_end="2").replace("four_species.rdn", "still.rdn")
    cfg = cfg.replace("scheme = strang", "scheme = imex").replace("dt = 1e-3", "dt = 1")
    for name, amplitude in (("A1", 0.9), ("A2", -0.9), ("A3", 0.9), ("A4", -0.9)):
        cfg = cfg.replace(f"species.{name}.modes = (1,1):{0.01 if amplitude > 0 else -0.01}",
                          f"species.{name}.modes = (1,1):{amplitude}")
    (workdir / "sq.cfg").write_text(cfg)
    started = writers_started(monkeypatch, cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["simulate", str(workdir / "sq.cfg")]) == 3
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert "numerical failure: species A1 went negative" in capsys.readouterr().err
    assert len(started) == (len(cpus) >= 2)
    for proc in started:
        assert_reaped(proc, 0)
    assert [p.name for p in (workdir / "out").iterdir()] == ["snapshot_00000000.csv"]


def test_writer_process_exits_when_its_parent_is_killed(tmp_path):
    # the killed parent's end of the pipe closes: the writer reads EOF and exits
    code = ("import sys, time\n"
            "from rdbalance.csvtable import TableWriter\n"
            "writer = TableWriter()\n"
            "print(writer._proc.pid, flush=True)\n"
            "time.sleep(60)\n")
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    status = Path(f"/proc/{pid}/status")
    deadline = time.monotonic() + 30
    while status.exists() and time.monotonic() < deadline:
        try:  # gone, or a zombie that only its new parent can reap
            if "\nState:\tZ" in status.read_text():
                break
        except OSError:
            break
        time.sleep(0.01)
    else:
        assert not status.exists()
