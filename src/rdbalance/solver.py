"""Finite-difference time integration of the nonlinear system on boxes
with no-flux boundaries.

Space: cell-centered second-order differences with mirror ghost cells, so
the discrete Laplacian annihilates constants and telescopes to zero cell
sum; together with Q P(a) = 0 this conserves the discrete masses exactly
up to roundoff.  Time: operator splitting.  The diffusion substeps are the
exact semigroup of the discrete Laplacian (dense per-axis cosine
propagators, built in numpy, on grids with at most _DENSE_AXIS_MAX cells
per axis; one batched scipy DCT-II on grids with a longer axis; mode 0
exact on both), so they keep cells nonnegative for any step size.

* ``imex``: exact diffusion over dt, then forward-Euler reaction (Lie
  splitting).  First order.
* ``strang``: exact diffusion over dt/2, full-step Heun (second-order
  Runge-Kutta) pointwise reaction, exact diffusion over dt/2.  Second
  order.

``Stepper.advance`` takes several steps at once (``simulate`` takes one
output interval per call).  Within such a run the closing half-diffusion
of one ``strang`` step and the opening one of the next compose exactly,
so they are applied as one diffusion over dt: n steps cost n + 1
diffusion substeps, not 2n.  ``simulate`` sets a run up once: the reference
equilibrium of the initial masses and, when no dt is given, ``default_dt``.

Negative concentrations are an error, not something to clip: clipping
would silently destroy the conservation laws the scheme is built around.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord, DiagnosticsSeries, _read_table, \
    _write_table
from .equilibrium import EquilibriumState, conserved_masses, \
    detailed_balance_equilibrium
from .geometry import Grid
from .network import ReactionNetwork, StoichiometryDecomposition, decompose

NEGATIVE_TOL = -1e-10  # relative to the largest cell

# Dense diffusion propagators when no axis has more cells than this.  A
# dense apply costs about n_k flops per cell on axis k, so the longest axis
# sets the crossover: per apply, dense ties the DCT at n = 192 on an
# interval and is 14% slower on 192^2, but a grid within the limit needs no
# scipy import (0.16 s, 27 MB), which 192^2 repays after about 250 steps.
_DENSE_AXIS_MAX = 192

_SCHEMES = ("strang", "imex")


class NonPositivityError(RuntimeError):
    """A cell dropped below the roundoff tolerance for nonnegativity, or
    stopped being finite (NaN or inf)."""

    def __init__(self, species: str, cell: tuple[int, ...], t: float, value: float):
        cell = tuple(int(c) for c in cell)
        what = "went negative" if value < 0 else "is not finite"
        super().__init__(
            f"species {species} {what} at cell {cell}, t = {t:g} "
            f"(value {value:.3e})")
        self.species = species
        self.cell = cell
        self.t = t
        self.value = value


@dataclass(frozen=True)
class State:
    """Cell-averaged concentrations of every species at one time."""

    t: float
    fields: np.ndarray  # (I, *grid.shape)
    grid: Grid

    def __post_init__(self):
        fields = np.asarray(self.fields, dtype=float)
        if fields.shape[1:] != self.grid.shape:
            raise ValueError(
                f"fields of shape {fields.shape} do not live on grid {self.grid.shape}")
        object.__setattr__(self, "fields", fields)

    @property
    def n_species(self) -> int:
        return self.fields.shape[0]

    def means(self) -> np.ndarray:
        axes = tuple(range(1, self.fields.ndim))
        return self.fields.mean(axis=axes)


@dataclass(frozen=True)
class SpeciesProfile:
    """Constant plus Neumann-compatible cosine bumps for one species."""

    base: float
    modes: tuple[tuple[tuple[int, ...], float], ...] = ()


@dataclass(frozen=True)
class InitialSpec:
    """Either per-species cosine profiles or verbatim cell values from CSV."""

    profiles: tuple[SpeciesProfile, ...] | None = None
    csv_path: str | None = None

    def __post_init__(self):
        if (self.profiles is None) == (self.csv_path is None):
            raise ValueError("give exactly one of profiles or csv_path")


def _dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix, C[k, j] = s_k cos(pi k (2j + 1) / 2n)
    with s_0 = sqrt(1/n) and s_k = sqrt(2/n), so that C @ x is the
    ``norm="ortho"`` DCT-II of x.  The angle's numerator is reduced modulo
    4n in integers first: the unreduced float angle reaches about pi n and
    loses about 1e-14 to rounding at n = 192."""
    k = np.arange(n)[:, np.newaxis]
    r = k * (2 * np.arange(n) + 1) % (4 * n)
    c = np.cos(r * (math.pi / (2 * n)))
    c[0] *= math.sqrt(1.0 / n)
    c[1:] *= math.sqrt(2.0 / n)
    return c


class _DiffusionSemigroup:
    """Exact diffusion substep exp(tau d_i Lap) for every species at once.

    Lap is diagonal in the orthonormal DCT-II basis C, with eigenvalue
    -sum_axes mu_k, mu_k = grid.axis_eigenvalue(axis, k).  Grids with at
    most _DENSE_AXIS_MAX cells on every axis apply ``multiplier``, one
    (I, n, n) stack of propagators C^T diag(exp(-tau d_i mu)) C per axis
    (C from ``_dct_basis``), to each species' deviation from its mean;
    grids with a longer axis a batched scipy DCT, multiply and inverse DCT.
    Mode 0 is exact on both (mass is kept), and every multiplier lies in
    (0, 1] (cells stay nonnegative at any tau).
    """

    def __init__(self, grid: Grid, diffusion, tau: float):
        self.axes = tuple(range(1, grid.ndim + 1))
        self._d = np.asarray(diffusion, dtype=float).reshape((-1,) + (1,) * grid.ndim)
        self._mu = [grid.axis_eigenvalue(k, np.arange(n))
                    for k, n in enumerate(grid.shape)]
        self._dense = max(grid.shape) <= _DENSE_AXIS_MAX
        if self._dense:
            self._basis = [_dct_basis(n) for n in grid.shape]
            # fields as (I, cells before axis k, n_k, cells after it)
            self._views = [(len(self._d), math.prod(grid.shape[:k]), n,
                            math.prod(grid.shape[k + 1:]))
                           for k, n in enumerate(grid.shape)]
        else:
            from scipy import fft  # deferred: only grids this large need scipy

            self._fft = fft
            self._eigenvalues = sum(-mu.reshape((-1,) + (1,) * (grid.ndim - 1 - k))
                                    for k, mu in enumerate(self._mu))
        self.multiplier = self.multiplier_over(tau)

    def multiplier_over(self, tau: float):
        if self._dense:
            d = self._d.reshape(-1, 1)
            return tuple((c.T * np.exp(-tau * d * mu)[:, np.newaxis, :]) @ c
                         for c, mu in zip(self._basis, self._mu))
        return np.exp(tau * self._d * self._eigenvalues)

    def apply(self, fields: np.ndarray, multiplier=None,
              overwrite: bool = False) -> np.ndarray:
        """exp(tau d_i Lap) fields, with tau that of ``multiplier`` (by
        default the constructor's).  ``overwrite`` lets the substep reuse
        ``fields`` as scratch: pass it only for arrays the caller owns."""
        multiplier = self.multiplier if multiplier is None else multiplier
        if not self._dense:
            modes = self._fft.dctn(fields, axes=self.axes, norm="ortho",
                                   overwrite_x=overwrite)
            modes *= multiplier
            return self._fft.idctn(modes, axes=self.axes, norm="ortho", overwrite_x=True)
        # the propagators' column sums are 1 only to rounding: keep the mean
        # out (np.mean's own sum and divide, without its per-call overhead)
        mean = np.add.reduce(fields, axis=self.axes, keepdims=True)
        mean /= fields.size // len(fields)
        out = np.subtract(fields, mean, out=fields if overwrite else None)
        for propagator, (i, a, n, b) in zip(multiplier, self._views):
            # on the last axis, rows times the (symmetric) propagator: one gemm
            out = (np.matmul(out.reshape(i, a, n), propagator) if b == 1
                   else np.matmul(propagator[:, np.newaxis], out.reshape(i, a, n, b)))
        return out.reshape(fields.shape) + mean


class Stepper:
    """Integrator bound to a network, grid, dt and scheme."""

    def __init__(self, net: ReactionNetwork, grid: Grid, dt: float, scheme: str):
        key = str(scheme).lower()
        if key not in _SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (use 'strang' or 'imex')")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.net = net
        self.grid = grid
        self.dt = dt
        self.scheme = key
        self.reaction = net.kinetics
        # opening substep of a step: D(dt/2) for strang, D(dt) for imex
        self.diffusion = _DiffusionSemigroup(
            grid, net.diffusion, 0.5 * dt if key == "strang" else dt)
        # between two reactions: D(dt) for both (strang's two halves merged)
        self._between = (self.diffusion.multiplier_over(dt) if key == "strang"
                         else self.diffusion.multiplier)

    def _check(self, fields: np.ndarray, t: float) -> None:
        # argmin and argmax stop at the first NaN (+inf is the maximum), so a
        # NaN fails the test; only a failure pays for locating the bad cell.
        flat = fields.reshape(-1)
        worst_low, worst_high = flat.argmin(), flat.argmax()
        low, high = flat[worst_low], flat[worst_high]
        floor = NEGATIVE_TOL * abs(high)
        if low >= floor and -math.inf < low and high < math.inf:
            return
        for worst, value in ((worst_low, low), (worst_high, high)):
            if not (value >= floor and math.isfinite(value)):
                i, *cell = np.unravel_index(worst, fields.shape)
                raise NonPositivityError(self.net.species[i], cell, t, float(value))

    def _react(self, fields: np.ndarray) -> np.ndarray:
        """One reaction substep over dt, in place on ``fields``."""
        dt, production = self.dt, self.reaction.production
        rate = production(fields)
        if self.scheme == "imex":
            rate *= dt
        else:  # Heun: explicit trapezoid, second order, matches the scheme order
            trial = dt * rate
            trial += fields
            rate += production(trial)
            rate *= 0.5 * dt
        fields += rate
        return fields

    def advance(self, state: State, n_steps: int = 1) -> State:
        """Take ``n_steps`` steps: D R [D(dt) R]^(n-1), then D(dt/2) for
        strang, where D is the opening substep and R the reaction.

        Positivity is checked on the input, after every reaction substep
        and on the output.  That is as strict as checking every step's
        input and output: exp(tau d Lap) has nonnegative entries and unit
        row sums, so min(D w) >= min(w), and a negative or non-finite cell
        after a diffusion substep implies one before it.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self._check(state.fields, state.t)  # the step contract needs admissible input
        fields = self.diffusion.apply(state.fields)  # never overwrites the input
        for j in range(1, n_steps + 1):
            t = state.t + j * self.dt
            fields = self._react(fields)
            self._check(fields, t)
            if j < n_steps:
                fields = self.diffusion.apply(fields, self._between, overwrite=True)
        if self.scheme == "strang":
            fields = self.diffusion.apply(fields, overwrite=True)
            self._check(fields, t)
        return State(t=t, fields=fields, grid=state.grid)


def step(state: State, net: ReactionNetwork, dt: float, scheme: str = "strang") -> State:
    """Advance one time step (builds a fresh Stepper; loops should reuse one)."""
    return Stepper(net, state.grid, dt, scheme).advance(state)


def build_initial(spec: InitialSpec, grid: Grid,
                  species_names=None) -> State:
    """Evaluate an initial condition on the grid at t = 0.

    Cosine profiles are evaluated at cell centers: base + sum over modes
    (k1, ..., kd) of eps prod_axes cos(k_j pi x_j / L_j).  CSV input is
    loaded verbatim in snapshot format.  The result must be finite and
    nonnegative.
    """
    if spec.csv_path is not None:
        fields = _read_snapshot_csv(spec.csv_path, grid, species_names)
    else:
        centers = grid.centers()
        extents = grid.domain.extents
        fields = np.zeros((len(spec.profiles),) + grid.shape)
        for i, profile in enumerate(spec.profiles):
            field = np.full(grid.shape, float(profile.base))
            for mode, amplitude in profile.modes:
                mode = (mode,) if isinstance(mode, int) else tuple(mode)
                if len(mode) != grid.ndim:
                    raise ValueError(
                        f"mode {mode} does not match a {grid.ndim}-d grid")
                bump = float(amplitude)
                for axis, k in enumerate(mode):
                    bump = bump * np.cos(int(k) * math.pi
                                         * centers[axis] / extents[axis])
                field = field + bump
            fields[i] = field
        if species_names is not None and len(species_names) != len(spec.profiles):
            raise ValueError("one profile per species required")
    bad = ~(np.isfinite(fields) & (fields >= 0))
    if bad.any():
        worst = int(np.argmax(bad))
        i, *cell = np.unravel_index(worst, fields.shape)
        kind = "negative" if fields.flat[worst] < 0 else "non-finite"
        raise ValueError(f"{kind} initial value for species index {int(i)} "
                         f"at cell {tuple(int(c) for c in cell)}")
    return State(t=0.0, fields=fields, grid=grid)


def _read_snapshot_csv(path, grid: Grid, species_names) -> np.ndarray:
    header, values = _read_table(path, "snapshot")
    n_coord = grid.ndim
    axes, columns = header[:n_coord], header[n_coord:]
    if axes != list("xyzw"[:n_coord]):
        raise ValueError(f"snapshot {path} has columns {axes} where a {n_coord}-d grid "
                         f"needs its coordinates {list('xyzw'[:n_coord])}")
    for k, name in enumerate(columns):
        if name in columns[:k]:
            raise ValueError(f"snapshot {path} names the column {name} twice")
    if species_names is not None:
        try:
            order = [columns.index(name) for name in species_names]
        except ValueError as exc:
            raise ValueError(f"snapshot {path} is missing a species column: {exc}")
    else:
        order = list(range(len(columns)))
    if len(values) != grid.n_cells:
        raise ValueError(
            f"snapshot {path} has {len(values)} cells, grid needs {grid.n_cells}")
    # each row's coordinates lie in the cell that the row fills, in row-major order
    for k, centres in enumerate(grid.centers()):
        outside = np.flatnonzero(~(abs(values[:, k] - centres.ravel()) < grid.spacing[k] / 2))
        if outside.size:
            row = outside[0]
            raise ValueError(f"snapshot {path} data row {row + 1}: {axes[k]} = "
                             f"{values[row, k]:.17g} lies outside the grid cell it fills")
    fields = np.empty((len(order),) + grid.shape)
    for i, col in enumerate(order):
        fields[i] = values[:, n_coord + col].reshape(grid.shape)
    return fields


def write_snapshot_csv(path, state: State, species_names,
                       comment: str | None = None) -> None:
    """Snapshot CSV: header x[,y[,z[,w]]],A1,...,AI, one row per cell (row-major,
    as ``grid.centers()``); each axis's centres are formatted once."""
    grid = state.grid
    axes = [["%.17g," % x for x in grid.axis_centers(k).tolist()] for k in range(grid.ndim)]
    _write_table(path, list("xyzw"[:grid.ndim]) + list(species_names),
                 state.fields.reshape(state.n_species, -1).T, comment,
                 map("".join, itertools.product(*axes)))


def default_dt(net: ReactionNetwork, a_inf, grid: Grid) -> float:
    """Heuristic step size: min(0.1 / |L|, 0.25 h^2 / max d).

    |L| is a Frobenius bound on the symmetrized reaction linearisation at
    the equilibrium; the second term keeps the splitting error of the
    (exact, unconditionally stable) diffusion substeps small.  Override freely.
    """
    from .linearised import linearised_matrix

    reaction_scale = max(float(np.linalg.norm(
        linearised_matrix(net, a_inf).symmetric())), 1e-12)
    h_min = min(grid.spacing)
    return min(0.1 / reaction_scale, 0.25 * h_min ** 2 / max(net.diffusion))


@dataclass(frozen=True)
class SimulationResult:
    series: DiagnosticsSeries
    snapshots: tuple[State, ...]
    equilibrium: EquilibriumState
    dt: float  # the step taken: the given one, or the shortened default_dt


def reference_equilibrium(net: ReactionNetwork, state: State
                          ) -> tuple[StoichiometryDecomposition, EquilibriumState]:
    """Conservation basis of ``net`` and the detailed-balance equilibrium with
    the conserved masses of ``state``: the one a run from ``state`` relaxes to."""
    stoich = decompose(net)
    masses = conserved_masses(stoich, state.means(), volume=state.grid.domain.measure)
    return stoich, detailed_balance_equilibrium(net, stoich, masses)


def simulate(net: ReactionNetwork, grid: Grid, initial: InitialSpec,
             dt: float | None, t_end: float, output_every: int = 1,
             scheme: str = "strang",
             snapshot_every: int | None = None) -> SimulationResult:
    """Advance ``initial`` (built by ``build_initial``) to t_end, recording a
    diag.csv row every ``output_every`` steps and at t_end, and a snapshot
    every ``snapshot_every`` outputs (0 or None: the initial and final states
    only; negative is refused).  t_end must be a whole number of steps dt.
    With dt None the step is ``default_dt`` at the reference equilibrium,
    shortened to t_end / ceil(t_end / dt) so that whole steps reach t_end;
    the result carries the dt used, and ``series`` the diag.csv table.

    The reference equilibrium is computed from the conserved masses of the
    initial data.  Deterministic: identical inputs give identical outputs.
    Dissipation columns are NaN at states with non-positive cells (where
    the dissipation integrals genuinely diverge); all other columns are
    finite throughout.
    """
    state = build_initial(initial, grid, species_names=net.species)
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if output_every < 1:
        raise ValueError("output_every must be >= 1")
    if snapshot_every is not None and snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")

    stoich, eq = reference_equilibrium(net, state)
    a_inf = eq.vector
    if dt is None:
        dt = default_dt(net, a_inf, grid)
        dt = t_end / math.ceil(t_end / dt)

    stepper = Stepper(net, grid, dt, scheme)
    ratio = t_end / dt
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9:
        raise ValueError(f"t_end = {t_end!r} is not a whole number of steps "
                         f"of dt = {dt!r}")

    record = DiagnosticsRecord(net, a_inf, grid, stoich.Q)
    rows = [record.row(state)]  # diag.csv's rows, in header order
    snapshots = [state]
    outputs = k = 0
    while k < n_steps:  # one advance per output interval
        chunk = min(output_every, n_steps - k)
        state = stepper.advance(state, chunk)
        k += chunk
        # keep recorded times exact multiples of dt
        state = State(t=k * dt, fields=state.fields, grid=grid)
        rows.append(record.row(state))
        outputs += 1
        if snapshot_every and outputs % snapshot_every == 0 and k != n_steps:
            snapshots.append(state)
    if state is not snapshots[-1]:
        snapshots.append(state)

    return SimulationResult(series=DiagnosticsSeries(np.array(rows)),
                            snapshots=tuple(snapshots), equilibrium=eq, dt=dt)
