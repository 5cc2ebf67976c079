"""Lyapunov functionals, weighted norms, dissipation terms, rate fits, and
the CSV table format of diag.csv and snapshots (one writer, one reader).

All integrals are midpoint quadrature over the cell-centered grid; the
gradient in the Fisher term lives on cell faces, matching the no-flux
discretization (boundary faces carry zero flux).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .network import ReactionNetwork

_ROWS_PER_WRITE = 1024  # bounds the transient strings of a table write


def _over_cells(a_inf, grid: Grid) -> np.ndarray:
    """a* as an (I, 1, ..., 1) array, for broadcasting against fields."""
    return np.asarray(a_inf, dtype=float).reshape((-1,) + (1,) * grid.ndim)


def _norm(abs_h: np.ndarray, weights, p, cell_volume: float) -> float:
    """The weighted L^p norm of ``abs_h`` = |h|, given (I, 1, ..., 1)
    ``weights`` a*^(p-1) for finite p (unused for p = inf)."""
    if p == math.inf:
        return float(abs_h.max()) if abs_h.size else 0.0
    terms = abs_h ** p
    terms /= weights
    return float((np.add.reduce(terms, axis=None) * cell_volume) ** (1.0 / p))


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
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    weights = None if p == math.inf else _over_cells(a ** (p - 1.0), grid)
    return _norm(np.abs(h), weights, p, grid.cell_volume)


def _entropy(a_fields: np.ndarray, a_star: np.ndarray, cell_volume: float) -> float:
    """relative_entropy with ``a_star`` already (I, 1, ..., 1)."""
    a = np.maximum(a_fields, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = a / a_star
        np.log(integrand, out=integrand)
        integrand *= a
        np.copyto(integrand, 0.0, where=a == 0)  # 0 ln 0 = 0
        integrand -= a
        integrand += a_star
    return float(np.add.reduce(integrand, axis=None) * cell_volume)


def relative_entropy(a_fields, a_inf, grid: Grid) -> float:
    """Relative free energy sum_i integral (a ln(a/a*) - a + a*).

    Nonnegative, and zero exactly at a = a*.  Uses the continuous
    extension 0 ln 0 = 0; tiny negative roundoff values are treated as 0.
    """
    return _entropy(np.asarray(a_fields, dtype=float), _over_cells(a_inf, grid),
                    grid.cell_volume)


def _fisher(a: np.ndarray, diffusion: np.ndarray, spacing, cell_volume: float) -> float:
    """sum_i d_i integral |grad a_i|^2 / a_i for all species at once: face
    differences over face means of a_i (boundary faces carry no flux)."""
    per_species = np.zeros(len(a))
    for axis, h in enumerate(spacing, start=1):
        lead = (slice(None),) * axis
        upper, lower = a[lead + (slice(1, None),)], a[lead + (slice(None, -1),)]
        du = np.subtract(upper, lower)
        du /= h
        mid = np.add(upper, lower)
        mid *= 0.5
        du *= du
        du /= mid
        per_species += np.add.reduce(du.reshape(len(a), -1), axis=1) * cell_volume
        del du, mid  # before the next axis makes its own
    # summed over species in order, as one running float total
    return float(np.add.accumulate(diffusion * per_species)[-1])


def _reaction(a: np.ndarray, kinetics, coeff: np.ndarray, a_star: np.ndarray,
              cell_volume: float) -> float:
    """integral of sum_r coeff_r (u^alpha - u^beta)(ln u^alpha - ln u^beta),
    u = a / a*, with ``coeff`` the (R, 1) column kf a*^alpha and ``a_star``
    (I, 1, ..., 1)."""
    mono = kinetics.monomials((a / a_star).reshape(a.shape[0], -1))
    u_alpha, u_beta = mono[:len(coeff)], mono[len(coeff):]
    terms = coeff * (u_alpha - u_beta) * np.log(u_alpha / u_beta)
    return float(np.add.reduce(terms, axis=None) * cell_volume)


def _reaction_coefficients(net: ReactionNetwork, a_inf: np.ndarray) -> np.ndarray:
    return net.kinetics.fluxes(a_inf)[0][:, np.newaxis]  # kf a*^alpha = kb a*^beta


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
    return (_fisher(a, net.diffusion_array(), grid.spacing, grid.cell_volume),
            _reaction(a, net.kinetics, _reaction_coefficients(net, a_star),
                      _over_cells(a_star, grid), grid.cell_volume))


class DiagnosticsRecord:
    """diag.csv's rows for one run: built once from the network, the
    reference equilibrium ``a_inf``, the grid and the conservation basis
    ``q``, it holds what every row reuses (a* shaped for broadcasting, the
    norm weights a*^(p-1), the reaction coefficients kf a*^alpha).  Each
    column is the value of its standalone function (``relative_entropy``,
    ``weighted_norm``, ``entropy_dissipation``), bit for bit: they share
    one formula each."""

    def __init__(self, net: ReactionNetwork, a_inf, grid: Grid, q):
        a_inf = np.asarray(a_inf, dtype=float)
        self._a_star = _over_cells(a_inf, grid)
        self._weights = {p: _over_cells(a_inf ** (p - 1.0), grid) for p in (2, 4)}
        self._coeff = _reaction_coefficients(net, a_inf)
        self._kinetics = net.kinetics
        self._diffusion = net.diffusion_array()
        self._q = np.asarray(q).astype(float)
        self._volume = grid.domain.measure
        self._spacing = grid.spacing
        self._cell_volume = grid.cell_volume

    def row(self, state) -> list[float]:
        """The diag.csv row of a ``solver.State``: t, the conserved masses
        Q mean(a) |Omega|, H, L2, L4, Linf, fisher and reaction.  The two
        dissipation columns are NaN unless every cell is positive.  No
        full-grid temporary outlives the column that needs it."""
        a, cell_volume = state.fields, self._cell_volume
        if a.min() > 0:
            dissipation = (_fisher(a, self._diffusion, self._spacing, cell_volume),
                           _reaction(a, self._kinetics, self._coeff, self._a_star,
                                     cell_volume))
        else:
            dissipation = (math.nan, math.nan)
        entropy = _entropy(a, self._a_star, cell_volume)
        abs_h = np.subtract(a, self._a_star)
        np.abs(abs_h, out=abs_h)
        norms = [_norm(abs_h, self._weights.get(p), p, cell_volume)
                 for p in (2, 4, math.inf)]
        return [state.t, *(self._q @ state.means() * self._volume), entropy,
                *norms, *dissipation]


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


def _named_column(name: str) -> property:
    return property(lambda self: self.column(name), doc=f"the {name} column")


@dataclass(frozen=True)
class DiagnosticsSeries:
    """diag.csv as one (n, q + 7) float table: a row per output time, in the
    column order of ``header()`` (time, the q conserved masses, relative free
    energy, weighted norms, dissipation terms).  The named attributes are
    read-only column views of it."""

    table: np.ndarray

    def __post_init__(self):
        if self.table.ndim != 2 or self.table.shape[1] < 1 + len(_FIXED_COLUMNS):
            raise ValueError("a diagnostics table has shape (n, q + 7), "
                             f"not {self.table.shape}")
        if np.any(np.diff(self.table[:, 0]) <= 0):
            raise ValueError("times must be strictly increasing")

    t = _named_column("t")
    entropy, l2, l4, linf, fisher, reaction = map(_named_column, _FIXED_COLUMNS)

    @property
    def n_masses(self) -> int:
        return self.table.shape[1] - 1 - len(_FIXED_COLUMNS)

    @property
    def masses(self) -> np.ndarray:  # (n, q)
        return self.table[:, 1:1 + self.n_masses]

    def header(self) -> list[str]:
        return ["t"] + [f"M{k + 1}" for k in range(self.n_masses)] + list(_FIXED_COLUMNS)

    def column(self, name: str) -> np.ndarray:
        """Column by CSV header name (t, M1..Mq, H, L2, L4, Linf, fisher, reaction)."""
        try:
            return self.table[:, self.header().index(name)]
        except ValueError:
            raise KeyError(f"unknown diagnostics column {name!r}") from None

    def write_csv(self, path, comment: str | None = None) -> None:
        _write_table(path, self.header(), self.table, comment)

    @classmethod
    def read_csv(cls, path) -> "DiagnosticsSeries":
        """The series of a diag.csv whose header is exactly ``header()`` for
        its width."""
        header, data = _read_table(path, "diagnostics")
        if len(header) < 1 + len(_FIXED_COLUMNS) or header != cls(data[:0]).header():
            raise ValueError(f"unrecognized diagnostics header in {path}")
        return cls(data)


def _write_table(path, header, table: np.ndarray, comment: str | None = None,
                 prefixes=None) -> None:
    """CSV table of diag.csv and snapshots: an optional "# comment" line,
    then csv.writer's bytes ("%.17g" numbers, CRLF line ends) for the header
    and one row per record, formatted a block of rows at a time.  An iterator
    of ``prefixes`` (fields already formatted, each with its comma) starts the rows."""
    row = "%s" * (prefixes is not None) + ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _ROWS_PER_WRITE):
            block = table[start:start + _ROWS_PER_WRITE]
            if prefixes is None:
                values = block.ravel().tolist()
            else:  # row by row: the prefix, then the row's values
                values = itertools.chain.from_iterable(zip(
                    itertools.islice(prefixes, len(block)), *block.T.tolist()))
            fh.write(row * len(block) % tuple(values))


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
