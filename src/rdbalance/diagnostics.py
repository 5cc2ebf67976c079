"""Lyapunov functionals, weighted norms, dissipation terms, rate fits, and
the CSV table format of diag.csv and snapshots (one writer, one reader).

All integrals are midpoint quadrature over the cell-centered grid; the
gradient in the Fisher term lives on cell faces, matching the no-flux
discretization (boundary faces carry zero flux).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .network import ReactionNetwork

_ROWS_PER_WRITE = 1024  # bounds the transient strings of a table write


def weighted_norm(h, a_inf, p, grid: Grid) -> float:
    """Equilibrium-weighted L^p norm of a perturbation field.

    (sum_i integral |h_i|^p / a*_i^(p-1))^(1/p) for finite p; the plain
    maximum over species and cells for p = inf (the weight family has no
    canonical infinite-p limit, so none is applied there).
    """
    h = np.asarray(h, dtype=float)
    a = np.asarray(a_inf, dtype=float)
    if h.shape[0] != a.shape[0] or h.shape[1:] != grid.shape:
        raise ValueError("field shape does not match species count and grid")
    if p == math.inf:
        return float(np.max(np.abs(h))) if h.size else 0.0
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    weights = a ** (p - 1.0)
    total = np.sum(np.abs(h) ** p / weights.reshape((-1,) + (1,) * grid.ndim))
    return float((total * grid.cell_volume) ** (1.0 / p))


def relative_entropy(a_fields, a_inf, grid: Grid) -> float:
    """Relative free energy sum_i integral (a ln(a/a*) - a + a*).

    Nonnegative, and zero exactly at a = a*.  Uses the continuous
    extension 0 ln 0 = 0; tiny negative roundoff values are treated as 0.
    """
    a = np.asarray(a_fields, dtype=float)
    a_star = np.asarray(a_inf, dtype=float).reshape((-1,) + (1,) * grid.ndim)
    a = np.maximum(a, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(a > 0, a * np.log(a / a_star), 0.0) - a + a_star
    return float(np.sum(integrand) * grid.cell_volume)


def _face_gradient_integral(u: np.ndarray, base: np.ndarray, grid: Grid) -> float:
    """integral |grad u|^2 / base via face differences; zero boundary flux."""
    total = 0.0
    for axis in range(grid.ndim):
        h = grid.spacing[axis]
        du = np.diff(u, axis=axis) / h
        mid = 0.5 * (np.take(base, range(1, grid.shape[axis]), axis=axis)
                     + np.take(base, range(0, grid.shape[axis] - 1), axis=axis))
        total += np.sum(du * du / mid) * grid.cell_volume
    return total


def entropy_dissipation(a_fields, net: ReactionNetwork, a_inf,
                        grid: Grid) -> tuple[float, float]:
    """Fisher and reaction dissipation of the relative free energy.

    fisher = sum_i d_i integral |grad a_i|^2 / a_i, and the reaction term
    integrates kf_r a*^alpha (u^alpha - u^beta)(ln u^alpha - ln u^beta)
    with u = a / a*.  Both are nonnegative and -dH/dt = fisher + reaction
    along exact trajectories.  Requires strictly positive cell values.
    """
    a = np.asarray(a_fields, dtype=float)
    a_star = np.asarray(a_inf, dtype=float)
    if np.any(a <= 0):
        i, *cell = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(f"non-positive cell value for species {int(i)} "
                         f"at cell {tuple(int(c) for c in cell)}")
    fisher = 0.0
    for i in range(a.shape[0]):
        fisher += net.diffusion[i] * _face_gradient_integral(a[i], a[i], grid)

    kinetics = net.kinetics
    coeff, _ = kinetics.fluxes(a_star)  # kf a*^alpha = kb a*^beta
    u = (a / a_star.reshape((-1,) + (1,) * grid.ndim)).reshape(a.shape[0], -1)
    u_alpha = kinetics.monomials(u, kinetics.forward)
    u_beta = kinetics.monomials(u, kinetics.backward)
    reaction = np.sum(coeff[:, np.newaxis] * (u_alpha - u_beta)
                      * np.log(u_alpha / u_beta))
    reaction *= grid.cell_volume
    return float(fisher), float(reaction)


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    degenerate: bool = False


def fit_decay_rate(t, y, window: tuple[float, float] | None = None) -> FitResult:
    """Exponential rate by least squares on (t, ln y).

    ``rate`` is minus the fitted slope.  A constant series has no
    identifiable rate; it is reported as rate 0 with the degenerate flag
    set (r_squared 0).  Requires y > 0 and at least 10 samples in the
    window.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be matching 1-d arrays")
    if window is not None:
        keep = (t >= window[0]) & (t <= window[1])
        t, y = t[keep], y[keep]
    if t.size < 10:
        raise ValueError(f"need at least 10 samples in the window, got {t.size}")
    if not np.all(y > 0):  # also rejects NaN
        raise ValueError("y must be strictly positive on the window")
    log_y = np.log(y)
    t_mean = t.mean()
    log_mean = log_y.mean()
    denom = np.sum((t - t_mean) ** 2)
    if denom == 0.0:
        raise ValueError("all samples share one time")
    slope = np.sum((t - t_mean) * (log_y - log_mean)) / denom
    ss_tot = np.sum((log_y - log_mean) ** 2)
    # constant series up to roundoff: no identifiable rate
    if ss_tot <= t.size * (1e-13 * max(1.0, abs(log_mean))) ** 2:
        return FitResult(rate=0.0, r_squared=0.0, degenerate=True)
    residual = log_y - (log_mean + slope * (t - t_mean))
    r_squared = 1.0 - np.sum(residual ** 2) / ss_tot
    return FitResult(rate=float(-slope), r_squared=float(r_squared))


_FIXED_COLUMNS = ("H", "L2", "L4", "Linf", "fisher", "reaction")


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-output-time record of masses, free energy, norms and dissipation."""

    t: np.ndarray
    masses: np.ndarray  # (n, q)
    entropy: np.ndarray
    l2: np.ndarray
    l4: np.ndarray
    linf: np.ndarray
    fisher: np.ndarray
    reaction: np.ndarray

    def __post_init__(self):
        n = self.t.shape[0]
        for name in ("entropy", "l2", "l4", "linf", "fisher", "reaction"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} has the wrong length")
        if self.masses.shape[0] != n:
            raise ValueError("masses block has the wrong length")
        if n and np.any(np.diff(self.t) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n_masses(self) -> int:
        return self.masses.shape[1]

    def column(self, name: str) -> np.ndarray:
        """Column by CSV header name (t, M1..Mq, H, L2, L4, Linf, fisher, reaction)."""
        if name == "t":
            return self.t
        if name.startswith("M") and name[1:].isdigit():
            k = int(name[1:]) - 1
            if 0 <= k < self.n_masses:
                return self.masses[:, k]
        mapping = dict(zip(_FIXED_COLUMNS, (self.entropy, self.l2, self.l4,
                                            self.linf, self.fisher, self.reaction)))
        if name in mapping:
            return mapping[name]
        raise KeyError(f"unknown diagnostics column {name!r}")

    def header(self) -> list[str]:
        return ["t"] + [f"M{k + 1}" for k in range(self.n_masses)] + list(_FIXED_COLUMNS)

    def write_csv(self, path, comment: str | None = None) -> None:
        table = np.column_stack([self.t, self.masses, self.entropy, self.l2,
                                 self.l4, self.linf, self.fisher, self.reaction])
        _write_table(path, self.header(), table, comment)

    @classmethod
    def read_csv(cls, path) -> "DiagnosticsSeries":
        header, data = _read_table(path, "diagnostics")
        if header[0] != "t" or header[-6:] != list(_FIXED_COLUMNS):
            raise ValueError(f"unrecognized diagnostics header in {path}")
        q = len(header) - 7  # the _FIXED_COLUMNS follow the masses, in field order
        return cls(data[:, 0], data[:, 1:1 + q], *data[:, 1 + q:].T)


def _write_table(path, header, table: np.ndarray, comment: str | None = None) -> None:
    """CSV table of diag.csv and snapshots: an optional "# comment" line,
    then csv.writer's bytes ("%.17g" numbers, CRLF line ends) for the header
    and one row per record, formatted a block of rows at a time."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _ROWS_PER_WRITE):
            block = table[start:start + _ROWS_PER_WRITE]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_table(path, kind: str) -> tuple[list[str], np.ndarray]:
    """Header and (rows, columns) values of a table; blank and "#" lines
    are skipped.  ``kind`` names the file in errors."""
    with open(path) as fh:
        lines = [line for line in fh
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"empty {kind} file {path}")
    header, data = next(csv.reader(lines[:1])), lines[1:]
    if not data:  # np.loadtxt warns on empty input
        return header, np.zeros((0, len(header)))
    try:
        values = np.loadtxt(data, delimiter=",", ndmin=2)
    except ValueError as exc:  # rows of unequal length, or a non-number
        raise ValueError(f"ragged or malformed {kind} rows in {path}: {exc}") from None
    if values.shape[1] != len(header):
        raise ValueError(f"ragged {kind} rows in {path}")
    return header, values
