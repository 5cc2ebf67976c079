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

``Stepper`` holds its diffusion multipliers, D(dt) and strang's D(dt/2),
and ``advance`` takes several steps at once (``simulate`` takes one output
interval per call): the closing D(dt/2) of one ``strang`` step and the
opening one of the next compose exactly into one D(dt), so n steps cost
n + 1 diffusion substeps, not 2n.  Diffusion propagates each species'
deviation from its cell mean, and the reaction steps in monomial space,
x += dt S m(x) or its Heun form, S m the ``Kinetics.production`` formula.
``simulate`` sets a run up once: the reference equilibrium of the initial
masses and, when no dt is given, ``default_dt``.

Negative concentrations are an error, not something to clip: clipping
would silently destroy the conservation laws the scheme is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtable import read_table, write_table
from .diagnostics import DiagnosticsRecord, DiagnosticsSeries
from .equilibrium import EquilibriumError, EquilibriumState, conserved_masses, \
    detailed_balance_equilibrium
from .geometry import Grid
from .network import ReactionNetwork, decompose

NEGATIVE_TOL = -1e-10  # relative to the largest cell

# Dense diffusion propagators when no axis has more cells than this.  A
# dense apply costs about n_k flops per cell on axis k, so the longest axis
# sets the crossover: per apply, dense ties the DCT at n = 192 on an
# interval and is 14% slower on 192^2, but a grid within the limit needs no
# scipy import (0.16 s, 27 MB), which 192^2 repays after about 250 steps.
_DENSE_AXIS_MAX = 192

# simulate records diag.csv rows in one pass per batch of output states of at
# most this many values.  Per row on a 2-vCPU host, 256-value states take 130 us
# alone, 10 us in 2^14-value batches, 14 us at 2^16; 4096-value states 270, 160, 270.
_RECORD_BATCH_VALUES = 2 ** 14

# Stepper.advance takes the species means again every this many steps of a
# call: the reaction moves them, and the dense propagators keep the mean of
# z = x - m0 only to rounding of its size.  2000 steps from (2, 0.1, 2, 0.1)
# with a mode-1 bump drift the masses 1.2e-13 (64 cells) and 1.1e-13 (32x24)
# with one m0, 4.9e-15 and 4.2e-16 at 16, as a mean per substep does.
_RECENTRE_STEPS = 16

# With no dt, simulate refuses a run of more steps than this: at about 15 us
# a 64-cell step, 10^9 steps take over four hours (rates out of scale).
_MAX_DEFAULT_STEPS = 10 ** 9

SCHEMES = ("strang", "imex")  # Stepper and the CLI take exactly these names


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
        return self.grid.means(self.fields)


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


class _DiffusionSemigroup:
    """Exact diffusion substeps exp(tau d_i Lap) for every species at once.

    Lap is diagonal in the orthonormal DCT-II basis C, with eigenvalue
    -sum_axes mu_k, mu_k = grid.axis_eigenvalue(axis, k).  Grids with at
    most _DENSE_AXIS_MAX cells on every axis apply one (I, n, n) stack of
    propagators C^T diag(exp(-tau d_i mu)) C per axis (C from
    ``grid.axis_basis``), grids with a longer axis a batched scipy DCT, multiply
    and inverse DCT: ``multiplier_over(tau)`` builds either, and ``Stepper``
    holds those of its steps.  Mode 0 is kept, exactly by the DCT and to
    rounding by the propagators; every factor lies in (0, 1], so cells stay
    nonnegative at any tau.
    """

    def __init__(self, grid: Grid, diffusion):
        self.axes = tuple(range(1, grid.ndim + 1))
        self._d = np.asarray(diffusion, dtype=float).reshape((-1,) + (1,) * grid.ndim)
        self._mu = [grid.axis_eigenvalue(k, np.arange(n))
                    for k, n in enumerate(grid.shape)]
        self._dense = max(grid.shape) <= _DENSE_AXIS_MAX
        if self._dense:
            self._basis = [grid.axis_basis(k) for k in range(grid.ndim)]
            # fields as (I, cells before axis k, n_k, cells after it)
            self._views = [(len(self._d), math.prod(grid.shape[:k]), n,
                            math.prod(grid.shape[k + 1:]))
                           for k, n in enumerate(grid.shape)]
        else:
            from scipy import fft  # deferred: only grids this large need scipy

            self._fft = fft
            self._eigenvalues = sum(-mu.reshape((-1,) + (1,) * (grid.ndim - 1 - k))
                                    for k, mu in enumerate(self._mu))

    def multiplier_over(self, tau: float):
        if self._dense:
            d = self._d.reshape(-1, 1)
            return tuple((c.T * np.exp(-tau * d * mu)[:, np.newaxis, :]) @ c
                         for c, mu in zip(self._basis, self._mu))
        return np.exp(tau * self._d * self._eigenvalues)

    def apply(self, fields: np.ndarray, multiplier) -> np.ndarray:
        """exp(tau d_i Lap) fields, tau that of ``multiplier``, reusing
        ``fields`` as scratch on the DCT path.  The propagators' column sums
        are 1 only to rounding, so a field's mean is kept to rounding of its
        own size: ``Stepper`` hands it deviations from the species means."""
        if not self._dense:
            modes = self._fft.dctn(fields, axes=self.axes, norm="ortho", overwrite_x=True)
            modes *= multiplier
            return self._fft.idctn(modes, axes=self.axes, norm="ortho", overwrite_x=True)
        out = fields
        for propagator, (i, a, n, b) in zip(multiplier, self._views):
            # on the last axis, rows times the (symmetric) propagator: one gemm
            out = (np.matmul(out.reshape(i, a, n), propagator) if b == 1
                   else np.matmul(propagator[:, np.newaxis], out.reshape(i, a, n, b)))
        return out.reshape(fields.shape)


def check_cells(fields: np.ndarray, species, t: float) -> None:
    """The one rule for admissible cells, of initial data and of every step:
    each cell of ``fields`` (I, *grid) is finite and >= NEGATIVE_TOL |max|.
    Else NonPositivityError names ``species[i]`` and the first NaN, else the
    minimum, else the maximum."""
    # argmin and argmax stop at the first NaN (+inf is the maximum), so a
    # NaN fails the test; only a failure pays for locating the bad cell.
    flat = fields.reshape(-1)
    worst_low, worst_high = flat.argmin(), flat.argmax()
    low, high = flat.item(worst_low), flat.item(worst_high)  # Python floats
    low_ok = low >= NEGATIVE_TOL * abs(high) and -math.inf < low
    if not (low_ok and high < math.inf):
        worst, value = (worst_high, high) if low_ok else (worst_low, low)
        i, *cell = np.unravel_index(worst, fields.shape)
        raise NonPositivityError(species[i], cell, t, float(value))


class Stepper:
    """Integrator bound to a network, grid, dt > 0 and scheme (in ``SCHEMES``)."""

    def __init__(self, net: ReactionNetwork, grid: Grid, dt: float, scheme: str):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (use {' or '.join(SCHEMES)})")
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        self.net = net
        self.grid = grid
        self.dt = dt
        self.scheme = scheme
        self.reaction = net.kinetics
        self.diffusion = _DiffusionSemigroup(grid, net.diffusion)
        # D(dt) between two reactions (strang's two halves merged); a chunk
        # opens with D(dt/2), which also closes it, for strang, D(dt) for imex
        self._between = self.diffusion.multiplier_over(dt)
        self._opening = (self.diffusion.multiplier_over(0.5 * dt) if scheme == "strang"
                         else self._between)
        # dt S and dt/2 S of production's S = Kinetics.signed: scaling its
        # entries, +-1 or +-2 times a rate, by dt is exact, so Q (dt S) = 0
        self._step_rates = dt * self.reaction.signed
        self._half_rates = 0.5 * self._step_rates

    def advance(self, state: State, n_steps: int = 1) -> State:
        """Take ``n_steps`` steps: D R [D(dt) R]^(n-1), then D(dt/2) for
        strang, with D the opening substep and R the reaction: forward
        Euler x += dt S m(x) for imex, Heun (explicit trapezoid, second
        order) trial = x + dt S m(x), x += dt/2 S (m(x) + m(trial)) for
        strang, with m the monomials and S m = ``Kinetics.production``.

        Diffusion acts on z = x - m0, m0 the species' cell means at the
        start (taken again every _RECENTRE_STEPS steps): the propagators
        alone, with no mean work per substep; the reaction sees z + m0.

        Positivity is checked on the input, after every reaction substep
        and on the output.  That is as strict as checking every step's
        input and output: exp(tau d Lap) has nonnegative entries and unit
        row sums, so min(D w) >= min(w), and a negative or non-finite cell
        after a diffusion substep implies one before it.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        species, t0, dt = self.net.species, state.t, self.dt
        monomials, diffuse = self.reaction.monomials, self.diffusion.apply
        step_rates, half_rates = self._step_rates, self._half_rates
        heun = self.scheme == "strang"
        fields, grid = state.fields, state.grid
        check_cells(fields, species, t0)  # admissible input
        n_species, broadcast = len(fields), (...,) + (np.newaxis,) * grid.ndim
        for j in range(1, n_steps + 1):
            if (j - 1) % _RECENTRE_STEPS == 0:
                mean = grid.means(fields)[broadcast]
            # z = x - m0, never in the input's own array; D(z), then x = z + m0
            deviation = np.subtract(fields, mean, out=fields if j > 1 else None)
            fields = diffuse(deviation, self._between if j > 1 else self._opening)
            fields += mean
            flat = fields.reshape(n_species, -1)
            mono = monomials(flat)  # the reaction substep, in place on fields
            if heun:
                trial = np.dot(step_rates, mono)
                trial += flat
                mono += monomials(trial)
                del trial
                flat += np.dot(half_rates, mono)
            else:
                flat += np.dot(step_rates, mono)
            del mono  # free each step's temporaries before the next step makes its own
            t = t0 + j * dt
            check_cells(fields, species, t)
        if heun:
            fields = diffuse(np.subtract(fields, mean, out=fields), self._opening)
            fields += mean
            check_cells(fields, species, t)
        return State(t=t, fields=fields, grid=grid)


def build_initial(spec: InitialSpec, grid: Grid, species_names) -> State:
    """Evaluate an initial condition for ``species_names`` on the grid at t = 0.

    Cosine profiles, one per species, are evaluated at cell centers: base +
    sum over modes (k1, ..., kd) of eps prod_axes cos(k_j pi x_j / L_j).  CSV
    input is loaded verbatim in snapshot format, its columns picked by
    name.  The result must pass ``check_cells``, as every step does, so a
    run's own snapshot restarts; ValueError otherwise.
    """
    if spec.csv_path is not None:
        fields = _read_snapshot_csv(spec.csv_path, grid, species_names)
    else:
        if len(species_names) != len(spec.profiles):
            raise ValueError("one profile per species required")
        centers = grid.centers()
        extents = grid.domain.extents
        fields = np.empty((len(spec.profiles),) + grid.shape)
        for field, profile in zip(fields, spec.profiles):
            field[...] = float(profile.base)
            for mode, amplitude in profile.modes:
                if len(mode) != grid.ndim:
                    raise ValueError(
                        f"mode {mode} does not match a {grid.ndim}-d grid")
                bump = float(amplitude)
                for axis, k in enumerate(mode):
                    bump = bump * np.cos(int(k) * math.pi
                                         * centers[axis] / extents[axis])
                field += bump
    try:
        check_cells(fields, species_names, 0.0)
    except NonPositivityError as bad:
        kind = "negative" if bad.value < 0 else "non-finite"
        # a snapshot's data rows are its cells in row-major order
        source = ("" if spec.csv_path is None else f"snapshot {spec.csv_path} data row "
                  f"{np.ravel_multi_index(bad.cell, grid.shape) + 1}: ")
        raise ValueError(f"{source}{kind} initial value for species "
                         f"{bad.species} at cell {bad.cell}") from None
    return State(t=0.0, fields=fields, grid=grid)


def _read_snapshot_csv(path, grid: Grid, species_names) -> np.ndarray:
    header, values = read_table(path, "snapshot")
    n_coord = grid.ndim
    axes, columns = header[:n_coord], header[n_coord:]
    if axes != list("xyzw"[:n_coord]):
        raise ValueError(f"snapshot {path} has columns {axes} where a {n_coord}-d grid "
                         f"needs its coordinates {list('xyzw'[:n_coord])}")
    for k, name in enumerate(columns):
        if name in columns[:k]:
            raise ValueError(f"snapshot {path} names the column {name} twice")
    try:
        order = [columns.index(name) for name in species_names]
    except ValueError as exc:
        raise ValueError(f"snapshot {path} is missing a species column: {exc}")
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
    return values.T[[n_coord + col for col in order]].reshape((len(order),) + grid.shape)


def snapshot_table(state: State, species_names):
    """``write_table``'s header, columns and axes for a snapshot CSV: header
    x[,y[,z[,w]]],A1,...,AI, one row per cell (row-major, as
    ``grid.centers()``), each row starting with its cell's centre."""
    grid = state.grid
    return (list("xyzw"[:grid.ndim]) + list(species_names),
            list(state.fields.reshape(state.n_species, -1)),
            [grid.axis_centers(k) for k in range(grid.ndim)])


def write_snapshot_csv(path, state: State, species_names,
                       comment: str | None = None) -> None:
    """Snapshot CSV of ``state`` (see ``snapshot_table``), written before
    the call returns."""
    write_table(path, *snapshot_table(state, species_names), comment=comment)


def _reaction_scale(net: ReactionNetwork, a_inf) -> float:
    """|L| of ``default_dt``; EquilibriumError if it overflows."""
    from .linearised import linearised_matrix

    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        reaction_scale = float(np.linalg.norm(linearised_matrix(net, a_inf).symmetric()))
    if not math.isfinite(reaction_scale):
        raise EquilibriumError("default_dt: the reaction scale |L| at a* overflows "
                               "float range (give dt)")
    return reaction_scale


def default_dt(net: ReactionNetwork, a_inf, grid: Grid) -> float:
    """Heuristic step size: min(0.1 / |L|, 0.25 h^2 / max d).

    |L| is a Frobenius bound on the symmetrized reaction linearisation at
    the equilibrium (no bound where |L| is 0); the second term keeps the
    splitting error of the (exact, unconditionally stable) diffusion
    substeps small.  Override freely.  EquilibriumError if |L| overflows.
    """
    reaction_scale = _reaction_scale(net, a_inf)
    h_min = min(grid.spacing)
    return min(0.1 / reaction_scale if reaction_scale else math.inf,
               0.25 * h_min ** 2 / max(net.diffusion))


@dataclass(frozen=True)
class SimulationResult:
    series: DiagnosticsSeries
    equilibrium: EquilibriumState
    dt: float  # the step taken: the given one, or the shortened default_dt


def reference_equilibrium(net: ReactionNetwork, state: State) -> EquilibriumState:
    """The detailed-balance equilibrium with the conserved masses of
    ``state``: the one a run from ``state`` relaxes to."""
    stoich = decompose(net)
    masses = conserved_masses(stoich, state.means())
    return detailed_balance_equilibrium(net, stoich, masses)


def simulate(net: ReactionNetwork, grid: Grid, initial: InitialSpec,
             dt: float | None, t_end: float, output_every: int = 1,
             scheme: str = "strang", snapshot_every: int = 0,
             on_snapshot=None) -> SimulationResult:
    """Advance ``initial`` (built by ``build_initial``) to t_end, recording a
    diag.csv row every ``output_every`` steps and at t_end, and a snapshot
    every ``snapshot_every`` outputs (0: the initial and final states only;
    negative is refused).  t_end must be a whole number of steps dt.
    With dt None the step is ``default_dt`` at the reference equilibrium,
    shortened to t_end / ceil(t_end / dt) so that whole steps reach t_end;
    the result carries the dt used, and ``series`` the diag.csv table.

    ``on_snapshot(state, step, final)`` is how a caller gets snapshots: if
    given, it is called with each snapshot ``State``, its step count and
    whether it is the run's last as it is taken, the initial one before the
    first step and the final one (``final`` true) before ``simulate``
    returns.  An exception it raises ends it.  The run holds an
    output state only until its row is recorded (``_RECORD_BATCH_VALUES``).

    The reference equilibrium is computed from the conserved masses of the
    initial data.  Deterministic: identical inputs give identical outputs.
    Dissipation columns are NaN at states with non-positive cells (where
    the dissipation integrals genuinely diverge); any other value that is
    not finite raises FloatingPointError (``DiagnosticsRecord.rows``).
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if output_every < 1:
        raise ValueError("output_every must be >= 1")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    state = build_initial(initial, grid, species_names=net.species)

    eq = reference_equilibrium(net, state)
    a_inf = eq.vector
    if dt is None:
        steps = t_end / default_dt(net, a_inf, grid)
        if steps > _MAX_DEFAULT_STEPS:  # inf included
            raise EquilibriumError(f"default_dt: t_end takes {steps:.3g} steps at |L| = "
                                   f"{_reaction_scale(net, a_inf):.3g}, more than "
                                   f"{_MAX_DEFAULT_STEPS:.0e} (give dt)")
        dt = t_end / math.ceil(steps)

    stepper = Stepper(net, grid, dt, scheme)
    ratio = t_end / dt
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9:
        raise ValueError(f"t_end = {t_end!r} is not a whole number of steps "
                         f"of dt = {dt!r}")

    record = DiagnosticsRecord(net, a_inf, grid)
    per_pass = max(1, _RECORD_BATCH_VALUES // state.fields.size)
    tables, held = [], []  # diag.csv's rows in header order; states not yet in them
    outputs = k = 0
    while True:  # one advance per output interval
        held.append(state)
        if len(held) == per_pass or k == n_steps:
            stack = (np.stack([s.fields for s in held]) if len(held) > 1
                     else state.fields[np.newaxis])  # a view: no copy of a lone state
            tables.append(record.rows([s.t for s in held], stack))
            held.clear()
        if on_snapshot is not None and (
                k in (0, n_steps) or snapshot_every and outputs % snapshot_every == 0):
            on_snapshot(state, k, k == n_steps)
        if k == n_steps:
            break
        chunk = min(output_every, n_steps - k)
        k += chunk
        outputs += 1
        # keep recorded times exact multiples of dt
        state = State(t=k * dt, fields=stepper.advance(state, chunk).fields, grid=grid)

    return SimulationResult(series=DiagnosticsSeries(np.concatenate(tables)),
                            equilibrium=eq, dt=dt)
