"""Lyapunov functionals, weighted norms, dissipation terms, rate fits, and
the diag.csv table.

All integrals are midpoint quadrature over the cell-centered grid; the
gradient in the Fisher term lives on cell faces, matching the no-flux
discretization (boundary faces carry zero flux).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtable import read_table, write_table
from .geometry import Grid
from .network import ReactionNetwork


def _over_cells(a_inf, grid: Grid) -> np.ndarray:
    """a* as an (I, 1, ..., 1) array, for broadcasting against fields."""
    return np.asarray(a_inf, dtype=float).reshape((-1,) + (1,) * grid.ndim)


def _integral(terms: np.ndarray, a_star: np.ndarray, p, cell_volume: float) -> list[float]:
    """(sum_i a*_i integral terms_i)^(1/p) of each state of a (K, I, *grid)
    stack, summed over species in order: H for phi(r), p = 1; L^p for |r|^p."""
    per_species = np.add.reduce(terms.reshape(terms.shape[:2] + (-1,)), axis=2) * cell_volume
    sums = np.add.accumulate(per_species * a_star.reshape(-1), axis=1)[:, -1]
    return [total ** (1.0 / p) for total in sums.tolist()]  # numpy's vector ** is an ulp off


def _linf(h: np.ndarray) -> list[float]:
    """max |h| of each state of a (K, I, *grid) stack, from its extremes."""
    flat = h.reshape(len(h), -1)
    return np.maximum(np.abs(flat.min(axis=1)), np.abs(flat.max(axis=1))).tolist()


def weighted_norm(h, a_inf, p, grid: Grid) -> float:
    """Equilibrium-weighted L^p norm of a perturbation field.

    (sum_i integral |h_i|^p / a*_i^(p-1))^(1/p) for finite p, formed as
    (sum_i a*_i integral |h_i / a*_i|^p)^(1/p); the plain maximum over
    species and cells for p = inf (the weight family has no canonical
    infinite-p limit, so none is applied there).
    """
    h = np.asarray(h, dtype=float)
    a_star = _over_cells(a_inf, grid)
    if h.shape[0] != len(a_star) or h.shape[1:] != grid.shape:
        raise ValueError("field shape does not match species count and grid")
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    if p == math.inf:
        return _linf(h[np.newaxis])[0]
    return _integral(np.square(h / a_star)[np.newaxis] ** (p / 2), a_star, p, grid.cell_volume)[0]


@np.errstate(divide="ignore", invalid="ignore")  # phi is set at r <= -1 below
def _entropy(r: np.ndarray, a_star: np.ndarray, cell_volume: float) -> list[float]:
    """relative_entropy of each state of a (K, I, *grid) stack ``r`` = h / a*:
    sum_i a*_i integral phi(r_i), phi(r) = (1 + r) log1p(r) - r.  A cell at
    or below 0 (r <= -1) counts as 0, where phi = 1 (0 ln 0 = 0)."""
    phi = np.log1p(r)
    phi *= 1.0 + r
    phi -= r
    if not r.min() > -1:  # skipped when every r > -1; a NaN stays NaN
        np.copyto(phi, 1.0, where=r <= -1)
    return _integral(phi, a_star, 1, cell_volume)


def relative_entropy(a_fields, a_inf, grid: Grid) -> float:
    """Relative free energy sum_i integral (a ln(a/a*) - a + a*).

    Nonnegative, and zero exactly at a = a*.  Formed as a* phi(r) with
    r = (a - a*) / a*, to O(eps / |r|) relative.  Uses the continuous
    extension 0 ln 0 = 0; tiny negative roundoff values are treated as 0.
    """
    a_star = _over_cells(a_inf, grid)
    r = (np.asarray(a_fields, dtype=float) - a_star) / a_star
    return _entropy(r[np.newaxis], a_star, grid.cell_volume)[0]


def _fisher(a: np.ndarray, diffusion: np.ndarray, spacing, cell_volume: float) -> np.ndarray:
    """sum_i d_i integral |grad a_i|^2 / a_i of each state of the stack ``a``:
    face differences over face means of a_i (boundary faces carry no flux)."""
    per_species = np.zeros(a.shape[:2])
    for axis, h in enumerate(spacing, start=2):
        lead = (slice(None),) * axis
        upper, lower = a[lead + (slice(1, None),)], a[lead + (slice(None, -1),)]
        du = np.subtract(upper, lower)
        du /= h
        mid = np.add(upper, lower)
        mid *= 0.5
        du *= du
        du /= mid
        per_species += np.add.reduce(du.reshape(a.shape[:2] + (-1,)), axis=2) * cell_volume
        del du, mid  # before the next axis makes its own
    # summed over species in order, as one running float total
    return np.add.accumulate(diffusion * per_species, axis=1)[:, -1]


def _reaction(a: np.ndarray, kinetics, coeff: np.ndarray, a_star: np.ndarray,
              cell_volume: float) -> np.ndarray:
    """integral of sum_r coeff_r (u^alpha - u^beta)(ln u^alpha - ln u^beta),
    u = a / a*, of each state of the (K, I, *grid) stack ``a``, with
    ``coeff`` the (R, 1) column kf a*^alpha and ``a_star`` (I, 1, ..., 1)."""
    u = np.moveaxis(a / a_star, 0, 1)  # species first: copied below only when K > 1
    mono = kinetics.monomials(u.reshape(len(u), -1))
    u_alpha, u_beta = mono[:len(coeff)], mono[len(coeff):]
    terms = coeff * (u_alpha - u_beta) * np.log(u_alpha / u_beta)
    per_state = np.moveaxis(terms.reshape(len(coeff), len(a), -1), 0, 1).reshape(len(a), -1)
    return np.add.reduce(per_state, axis=1) * cell_volume


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
    if not a.min() > 0:  # as in DiagnosticsRecord.rows; argmin finds a NaN first
        i, *cell = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(f"non-positive cell value for species {net.species[i]} "
                         f"at cell {tuple(int(c) for c in cell)}")
    a = a[np.newaxis]  # a stack of one state
    return (_fisher(a, net.diffusion_array(), grid.spacing, grid.cell_volume).item(),
            _reaction(a, net.kinetics, _reaction_coefficients(net, a_star),
                      _over_cells(a_star, grid), grid.cell_volume).item())


class DiagnosticsRecord:
    """diag.csv's rows for one run: built once from the network (and its
    conservation basis Q), the reference equilibrium ``a_inf`` and the grid,
    it holds what every row reuses (a* shaped for broadcasting, the reaction
    coefficients kf a*^alpha).  Each column is the value of its standalone
    function (``relative_entropy``, ``weighted_norm``,
    ``entropy_dissipation``), bit for bit: they share one formula each."""

    def __init__(self, net: ReactionNetwork, a_inf, grid: Grid):
        self._a_star = _over_cells(a_inf, grid)
        self._coeff = _reaction_coefficients(net, np.asarray(a_inf, dtype=float))
        self._kinetics = net.kinetics
        self._diffusion = net.diffusion_array()
        self._q = net.structure.Q.astype(float)
        self._grid = grid

    @np.errstate(all="ignore")  # a value past float range is refused by name
    def rows(self, times, stack: np.ndarray) -> np.ndarray:
        """The diag.csv rows of a (K, I, *grid) stack of states at ``times``,
        as a (K, q + 7) array: t, the masses Q mean(a), H, L2, L4,
        Linf, fisher and reaction, each reduced over its own state's cells
        alone.  A state's dissipation is NaN unless all its cells are > 0;
        any other value past float range raises FloatingPointError.
        No full-grid temporary outlives the column that needs it."""
        k, grid, cell_volume = len(stack), self._grid, self._grid.cell_volume
        positive = stack.reshape(k, -1).min(axis=1) > 0  # False at a NaN
        dissipation = np.zeros((2, k))
        if positive.any():
            a = stack if positive.all() else stack[positive]
            dissipation[:, positive] = (
                _fisher(a, self._diffusion, grid.spacing, cell_volume),
                _reaction(a, self._kinetics, self._coeff, self._a_star, cell_volume))
        r = np.subtract(stack, self._a_star)  # h = a - a*, exact where a is near a*
        linf = _linf(r)
        r /= self._a_star
        entropy = _entropy(r, self._a_star, cell_volume)
        terms = np.square(r)  # then squared in place: (r^2)^(p/2), as in weighted_norm
        norms = [_integral(terms, self._a_star, 2, cell_volume),
                 _integral(np.multiply(terms, terms, out=terms), self._a_star, 4, cell_volume)]
        # the cell means of each state, then one Q product each
        masses = np.matmul(self._q, grid.means(stack)[..., np.newaxis])[..., 0]
        table = np.column_stack([times, masses, entropy, *norms, linf, *dissipation])
        if not np.isfinite(table).all():
            row, column = np.argwhere(~np.isfinite(table))[0]
            raise FloatingPointError(
                f"diag.csv column {DiagnosticsSeries(table[:0]).header()[column]} is "
                f"{table[row, column]} at t = {table[row, 0]:g}: past float range")
        table[~positive, -2:] = math.nan
        return table


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
        write_table(path, self.header(), list(self.table.T), comment=comment)

    @classmethod
    def read_csv(cls, path) -> "DiagnosticsSeries":
        """The series of a diag.csv whose header is exactly ``header()`` for
        its width."""
        header, data = read_table(path, "diagnostics")
        if len(header) < 1 + len(_FIXED_COLUMNS) or header != cls(data[:0]).header():
            raise ValueError(f"unrecognized diagnostics header in {path}")
        return cls(data)

