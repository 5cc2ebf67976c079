"""The three benchmark workloads: inputs, one operation, output checks.

Every workload exposes the same four methods to the harness:

* ``prepare(i)`` builds the inputs of operation ``i`` (untimed);
* ``execute(inp)`` runs the operation through rdbalance's public calls
  (timed) and returns what the checks need, raising on failure;
* ``check(inp, out)`` raises ``CheckFailure`` when an output is wrong and
  returns the operation's rate error (relax workloads) or None;
* ``work(inp)`` is the operation's size: cell-steps, or one network.

Library calls go through module attributes at call time (``self.rdb.x``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FOUR_SPECIES_RDN = """\
species A1 A2 A3 A4
diffusion A1=1 A2=1 A3=1 A4=1
reaction A1 + A3 <-> A2 + A4 : kf=1 kb=1
"""
SIGNS = (1, -1, 1, -1)  # the (+,-,+,-) direction the reaction damps
REACTION_GAP = 4.0      # gap of the four-species swap at a* = (1, 1, 1, 1)
RATE_TOL = 0.05         # lambda_fit must lie within 5% of lambda_ref
MASS_TOL = 1e-10        # relative drift allowed in each conserved mass
H_RISE_TOL = 1e-10      # H may rise by this share of its first value
DB_TOL = 1e-9           # relative detailed-balance and mass residuals


class OperationFailed(Exception):
    """The operation produced no result; ``cause`` names where and why."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


class KnownDefect(OperationFailed):
    """rdbalance refused a valid input through a defect that is already
    recorded; the harness counts it apart from failures."""


class CheckFailure(Exception):
    """The operation produced a result that is wrong."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


# --------------------------------------------------------------------------
# relax-1d and relax-2d: the CLI user path, simulate then fit.


@dataclass(frozen=True)
class RelaxInput:
    config: Path
    diag: Path
    final_snapshot: Path
    n_cells: int
    n_steps: int
    lambda_ref: float
    parent_masses: np.ndarray | None  # set on restarts


def _run_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def read_diagnostics(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a diagnostics CSV, read without rdbalance."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


class _Relax:
    """Shared code for the two relaxation workloads."""

    def __init__(self, rdb, rng: np.random.Generator, workdir: Path, params: dict):
        self.rdb = rdb
        self.rng = rng
        self.workdir = workdir
        self.p = params
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "net.rdn").write_text(FOUR_SPECIES_RDN)

    def _write_config(self, name: str, scheme: str, out: str, initial: str) -> Path:
        p = self.p
        text = (f"network = net.rdn\ndomain = {p['domain']}\ngrid = {p['grid']}\n"
                f"scheme = {scheme}\ndt = {p['dt']!r}\n"
                f"t_end = {p['dt'] * p['steps']!r}\n"
                f"output_every = {p['output_every']}\noutput_dir = {out}\n")
        if p.get("snapshot_every"):
            text += f"snapshot_every = {p['snapshot_every']}\n"
        path = self.workdir / name
        path.write_text(text + initial)
        return path

    def _profiles(self) -> str:
        eps = float(self.rng.uniform(*self.p["amplitude"]))
        return "".join(f"species.A{k + 1}.base = 1.0\n"
                       f"species.A{k + 1}.modes = {self.p['mode']}:{s * eps!r}\n"
                       for k, s in enumerate(SIGNS))

    def _input(self, config, out, parent_masses) -> RelaxInput:
        p = self.p
        ndim = 2 if p["domain"].startswith("rect") else 1
        outdir = self.workdir / out
        shutil.rmtree(outdir, ignore_errors=True)
        return RelaxInput(
            config=config, diag=outdir / "diag.csv",
            final_snapshot=outdir / f"snapshot_{p['steps']:08d}.csv",
            n_cells=p["grid"] ** ndim, n_steps=p["steps"],
            lambda_ref=2.0 * (p["mu1"] + REACTION_GAP),
            parent_masses=parent_masses)

    def execute(self, inp: RelaxInput) -> float:
        cli = self.rdb.cli
        code, _, err = _run_cli(cli, ["simulate", str(inp.config)])
        if code != 0:
            raise OperationFailed(f"simulate exit {code}: {err.strip()[:80]}")
        code, out, err = _run_cli(cli, ["fit", str(inp.diag), "--column", "L2sq"])
        if code != 0:
            raise OperationFailed(f"fit exit {code}: {err.strip()[:80]}")
        return float(out.split("lambda_fit =", 1)[1].split()[0])

    def check(self, inp: RelaxInput, lambda_fit: float) -> float:
        return self._check_run(inp, lambda_fit)[0]

    def _check_run(self, inp: RelaxInput, lambda_fit: float):
        """Rate error and final masses of a run whose outputs pass."""
        header, rows = read_diagnostics(inp.diag)
        if rows.shape[0] < 10 or header[0] != "t":
            raise CheckFailure("diag.csv: missing rows or header")
        q = len(header) - 7
        masses = rows[:, 1:1 + q]
        drift = np.abs(masses - masses[0]).max(axis=0)
        if np.any(drift > MASS_TOL * np.abs(masses[0])):
            raise CheckFailure("masses drift")
        if inp.parent_masses is not None and np.any(
                np.abs(masses[0] - inp.parent_masses)
                > MASS_TOL * np.abs(inp.parent_masses)):
            raise CheckFailure("restart masses differ from parent's")
        entropy = rows[:, header.index("H")]
        if np.any(np.diff(entropy) > H_RISE_TOL * entropy[0]):
            raise CheckFailure("H rises")
        err = abs(lambda_fit - inp.lambda_ref) / inp.lambda_ref
        if not err <= RATE_TOL:
            raise CheckFailure("lambda_fit off by more than 5%")
        return err, masses[-1]

    def work(self, inp: RelaxInput) -> float:
        return float(inp.n_cells * inp.n_steps)


class Relax1D(_Relax):
    """Interval, n = 64, 500 steps; every fourth operation uses imex."""

    cycle = 4
    tail_pct = 80
    FULL = dict(domain="interval:1", grid=64, dt=1e-3, steps=500,
                output_every=10, mode="1", mu1=math.pi ** 2,
                amplitude=(0.005, 0.02))
    TOY = dict(FULL, grid=16, dt=2e-3, steps=100)

    def prepare(self, i: int) -> RelaxInput:
        scheme = "imex" if i % 4 == 3 else "strang"
        config = self._write_config("relax.cfg", scheme, "out", self._profiles())
        return self._input(config, "out", None)


class Relax2D(_Relax):
    """Unit square, 128^2 cells, 200 strang steps, four intermediate
    snapshots; odd operations restart from the previous final snapshot."""

    cycle = 2
    tail_pct = 50
    FULL = dict(domain="rect:1,1", grid=128, dt=1e-3, steps=200,
                output_every=10, snapshot_every=4, mode="(1,1)",
                mu1=2 * math.pi ** 2, amplitude=(0.005, 0.02))
    TOY = dict(FULL, grid=16, dt=2e-3, steps=40, output_every=2)

    def __init__(self, *args):
        super().__init__(*args)
        self.parent: RelaxInput | None = None
        self.last_masses = None

    def prepare(self, i: int) -> RelaxInput:
        parent, self.parent = self.parent, None
        if i % 2 == 1 and parent is not None:
            initial = f"initial_csv = {parent.final_snapshot.relative_to(self.workdir)}\n"
            config = self._write_config("restart.cfg", "strang", "restart", initial)
            return self._input(config, "restart", self.last_masses)
        config = self._write_config("fresh.cfg", "strang", "fresh", self._profiles())
        return self._input(config, "fresh", None)

    def check(self, inp: RelaxInput, lambda_fit: float) -> float:
        err, final_masses = self._check_run(inp, lambda_fit)
        if inp.parent_masses is None:  # only a checked fresh run gets a restart
            self.parent, self.last_masses = inp, final_masses
        return err


# --------------------------------------------------------------------------
# networks: the algebra, equilibrium and spectral-gap path, no stepping.
# The generator follows random_balanced_network in tests/conftest.py.


def random_quadratic_side(rng, n_species) -> tuple[int, ...]:
    side = [0] * n_species
    for _ in range(int(rng.integers(0, 3))):
        side[int(rng.integers(0, n_species))] += 1
    return tuple(side)


def random_balanced_network(rdb, rng, max_species=8, max_reactions=6):
    """Admissible network (empty sides allowed) with a detailed-balance
    equilibrium: draw a positive state and back out the backward rates."""
    n = int(rng.integers(2, max_species + 1))
    n_reactions = int(rng.integers(1, max_reactions + 1))
    drafts = []
    while len(drafts) < n_reactions:
        alpha = random_quadratic_side(rng, n)
        beta = random_quadratic_side(rng, n)
        if alpha == beta:
            continue
        drafts.append((alpha, beta, float(rng.uniform(0.2, 5.0)),
                       float(rng.uniform(0.2, 5.0))))
    diffusion = tuple(float(d) for d in rng.uniform(0.1, 10.0, size=n))
    a_star = rng.uniform(0.3, 3.0, size=n)
    reactions = []
    for alpha, beta, kf, _ in drafts:
        forward = kf * np.prod(a_star ** np.array(alpha))
        backward_monomial = np.prod(a_star ** np.array(beta))
        reactions.append(rdb.Reaction(alpha, beta, kf,
                                      float(forward / backward_monomial)))
    return rdb.ReactionNetwork(tuple(f"A{i + 1}" for i in range(n)),
                               tuple(reactions), diffusion)


MIXED_SIGN_DEFECT = ("conserved_masses refuses the non-positive mass of a "
                     "mixed-sign conservation law")


def mixed_sign_mass_refused(Q, state) -> bool:
    """True when a conservation law with coefficients of both signs gives
    the positive state a non-positive mass (``0 <-> A1 + A2`` conserves
    a1 - a2): a valid input that rdbalance still refuses."""
    Q = np.asarray(Q)
    mixed = (Q > 0).any(axis=1) & (Q < 0).any(axis=1)
    return bool(np.any(mixed & (Q @ state <= 0)))


@dataclass(frozen=True)
class NetworkInput:
    net: object
    state: np.ndarray        # seeded positive state giving the masses
    interval: float
    rectangle: tuple[float, float]


class Networks:
    """serialize -> parse -> validate -> decompose -> masses -> equilibrium
    -> spectral gap on one interval and one rectangle."""

    cycle = 1
    tail_pct = 90
    FULL = dict(max_species=8, max_reactions=6)
    TOY = FULL

    def __init__(self, rdb, rng: np.random.Generator, workdir: Path, params: dict):
        self.rdb = rdb
        self.rng = rng
        self.p = params

    def prepare(self, i: int) -> NetworkInput:
        net = random_balanced_network(self.rdb, self.rng, **self.p)
        state = self.rng.uniform(0.3, 3.0, size=len(net.species))
        lx, ly, length = (float(v) for v in self.rng.uniform(0.5, 2.0, size=3))
        return NetworkInput(net, state, length, (lx, ly))

    def execute(self, inp: NetworkInput):
        rdb = self.rdb
        stage = "serialize_network"
        try:
            text = rdb.serialize_network(inp.net)
            stage = "parse_network"
            net = rdb.parse_network(text)
            stage = "validate_network"
            report = rdb.validate_network(net)
            if not report.ok:
                raise OperationFailed(f"validate_network: {report.violations[0]}")
            stage = "decompose"
            stoich = rdb.decompose(net)
            stage = "conserved_masses"
            try:
                masses = rdb.conserved_masses(stoich, inp.state)
            except ValueError:
                if mixed_sign_mass_refused(stoich.Q, inp.state):
                    raise KnownDefect(MIXED_SIGN_DEFECT) from None
                raise
            stage = "detailed_balance_equilibrium"
            eq = rdb.detailed_balance_equilibrium(net, stoich, masses)
            stage = "operator_spectral_gap"
            gaps = (rdb.operator_spectral_gap(net, eq.vector, rdb.Interval(inp.interval)),
                    rdb.operator_spectral_gap(net, eq.vector, rdb.Rectangle(*inp.rectangle)))
        except OperationFailed:
            raise
        except Exception as exc:  # a library error ends this operation only
            raise OperationFailed(f"{stage}: {type(exc).__name__}") from exc
        return net, stoich, masses, eq, gaps

    def check(self, inp: NetworkInput, out) -> None:
        net, stoich, masses, eq, gaps = out
        if net != inp.net:
            raise CheckFailure("parse(serialize(net)) differs from net")
        a = eq.vector
        m = masses.vector
        if np.linalg.norm(stoich.Q @ a - m) > DB_TOL * max(np.linalg.norm(m), 1.0):
            raise CheckFailure("Q a* != m")
        for r in net.reactions:
            forward = r.kf * np.prod(a ** np.array(r.alpha))
            backward = r.kb * np.prod(a ** np.array(r.beta))
            if abs(forward - backward) > DB_TOL * max(forward, backward):
                raise CheckFailure("detailed balance fails at a*")
        for gap in gaps:
            if not 0 < gap.lambda_star <= gap.per_mode[0][1]:
                raise CheckFailure("lambda_star not in (0, mode-0 gap]")

    def work(self, inp: NetworkInput) -> float:
        return 1.0


WORKLOADS = {"relax-1d": Relax1D, "relax-2d": Relax2D, "networks": Networks}
