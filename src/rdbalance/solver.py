"""Finite-difference time integration of the nonlinear system on boxes
with no-flux boundaries.

Space: cell-centered second-order differences with mirror ghost cells, so
the discrete Laplacian annihilates constants and telescopes to zero cell
sum; together with Q P(a) = 0 this conserves the discrete masses exactly
up to roundoff.  Time: operator splitting.  The diffusion substeps are the
exact semigroup of the discrete Laplacian, applied to all species and axes
in one batched cosine transform (DCT-II), so they keep cells nonnegative
for any step size.

* ``imex``: exact diffusion over dt, then forward-Euler reaction (Lie
  splitting).  First order.
* ``strang``: exact diffusion over dt/2, full-step Heun (second-order
  Runge-Kutta) pointwise reaction, exact diffusion over dt/2.  Second
  order.

``Stepper.advance`` takes several steps at once (``simulate`` takes one
output interval per call).  Within such a run the closing half-diffusion
of one ``strang`` step and the opening one of the next compose exactly,
so they are applied as one diffusion over dt: n steps cost n + 1
transform pairs, not 2n.  ``simulate`` sets a run up once: the reference
equilibrium of the initial masses and, when no dt is given, ``default_dt``.

Negative concentrations are an error, not something to clip: clipping
would silently destroy the conservation laws the scheme is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsSeries, _read_table, _write_table, \
    entropy_dissipation, relative_entropy, weighted_norm
from .equilibrium import EquilibriumState, conserved_masses, \
    detailed_balance_equilibrium
from .geometry import Domain, Grid, Interval, Rectangle  # noqa: F401 (re-export)
from .network import ReactionNetwork, StoichiometryDecomposition, decompose

NEGATIVE_TOL = -1e-10  # relative to the largest cell

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


def build_laplacian(grid: Grid) -> "NeumannLaplacian":
    return NeumannLaplacian(grid)


class NeumannLaplacian:
    """Second-order cell-centered Laplacian with mirror ghost cells."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.shape:
            raise ValueError(f"field shape {u.shape} does not match the grid")
        out = np.zeros_like(u)
        for axis, h in enumerate(self.grid.spacing):
            padded = np.concatenate([np.take(u, [0], axis=axis), u,
                                     np.take(u, [-1], axis=axis)], axis=axis)
            n = u.shape[axis]
            out += (np.take(padded, range(0, n), axis=axis)
                    - 2.0 * u
                    + np.take(padded, range(2, n + 2), axis=axis)) / (h * h)
        return out


class _DiffusionSemigroup:
    """Exact diffusion substep exp(tau d_i Lap) for every species at once.

    The mirror-ghost Laplacian of ``NeumannLaplacian`` is diagonal in the
    orthonormal DCT-II basis, with eigenvalue -sum_axes (2/h sin(k pi/2n))^2
    for mode k, so the substep is a transform, a pointwise multiply and the
    inverse transform.  Mode 0 has multiplier exactly 1 (mass is kept to
    roundoff) and every multiplier lies in (0, 1] (the semigroup keeps
    cells nonnegative at any tau).
    """

    def __init__(self, grid: Grid, diffusion, tau: float):
        from scipy import fft  # deferred: importing rdbalance loads only numpy

        self._fft = fft
        self.axes = tuple(range(1, grid.ndim + 1))
        eigenvalues = np.zeros(grid.shape)
        for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
            mu = (2.0 / h * np.sin(np.arange(n) * math.pi / (2 * n))) ** 2
            eigenvalues = eigenvalues - mu.reshape(
                (n,) + (1,) * (grid.ndim - 1 - axis))
        self._eigenvalues = eigenvalues
        self._d = np.asarray(diffusion, dtype=float).reshape((-1,) + (1,) * grid.ndim)
        self.multiplier = self.multiplier_over(tau)  # (I, *grid.shape)

    def multiplier_over(self, tau: float) -> np.ndarray:
        return np.exp(tau * self._d * self._eigenvalues)

    def apply(self, fields: np.ndarray, multiplier: np.ndarray | None = None,
              overwrite: bool = False) -> np.ndarray:
        """exp(tau d_i Lap) fields, with tau that of ``multiplier`` (by
        default the constructor's).  ``overwrite`` lets the transform reuse
        ``fields`` as scratch: pass it only for arrays the caller owns."""
        modes = self._fft.dctn(fields, axes=self.axes, norm="ortho",
                               overwrite_x=overwrite)
        modes *= self.multiplier if multiplier is None else multiplier
        return self._fft.idctn(modes, axes=self.axes, norm="ortho", overwrite_x=True)


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
        # argmin and argmax both stop at the first NaN; +inf is the maximum
        worst_low, worst_high = int(np.argmin(fields)), int(np.argmax(fields))
        floor = NEGATIVE_TOL * abs(float(fields.flat[worst_high]))
        for worst in (worst_low, worst_high):
            value = float(fields.flat[worst])
            if not (value >= floor and math.isfinite(value)):
                i, *cell = np.unravel_index(worst, fields.shape)
                raise NonPositivityError(self.net.species[i], tuple(cell), t, value)

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

    Cosine profiles are evaluated at cell centers: base +
    sum eps cos(k pi x / Lx) (times cos(l pi y / Ly) in 2D).  CSV input is
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
    columns = header[n_coord:]
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
    fields = np.empty((len(order),) + grid.shape)
    for i, col in enumerate(order):
        fields[i] = values[:, n_coord + col].reshape(grid.shape)
    return fields


def write_snapshot_csv(path, state: State, species_names,
                       comment: str | None = None) -> None:
    """Snapshot CSV: header x[,y],A1,...,AI, one row per cell."""
    grid = state.grid
    table = np.column_stack([c.ravel() for c in grid.centers()]
                            + list(state.fields.reshape(state.n_species, -1)))
    _write_table(path, list("xy"[:grid.ndim]) + list(species_names), table, comment)


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


def simulate(net: ReactionNetwork, grid: Grid, initial: InitialSpec | State,
             dt: float | None, t_end: float, output_every: int = 1,
             scheme: str = "strang",
             snapshot_every: int | None = None) -> SimulationResult:
    """Advance to t_end, recording diagnostics every ``output_every`` steps
    and at t_end.  t_end must be a whole number of steps dt.  With dt None
    the step is ``default_dt`` at the reference equilibrium, shortened to
    t_end / ceil(t_end / dt) so that whole steps reach t_end; the result
    carries the dt used.

    The reference equilibrium is computed from the conserved masses of the
    initial data.  Deterministic: identical inputs give identical outputs.
    Dissipation columns are NaN at states with non-positive cells (where
    the dissipation integrals genuinely diverge); all other columns are
    finite throughout.
    """
    if isinstance(initial, State):
        if initial.grid != grid:
            raise ValueError("initial state lives on a different grid")
        state = initial
    else:
        state = build_initial(initial, grid, species_names=net.species)
    if state.n_species != net.n_species:
        raise ValueError("initial data does not match the species count")
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if output_every < 1:
        raise ValueError("output_every must be >= 1")

    stoich, eq = reference_equilibrium(net, state)
    a_inf = eq.vector
    q_matrix = stoich.Q.astype(float)
    volume = grid.domain.measure
    if dt is None:
        dt = default_dt(net, a_inf, grid)
        dt = t_end / math.ceil(t_end / dt)

    stepper = Stepper(net, grid, dt, scheme)
    ratio = t_end / dt
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9:
        raise ValueError(f"t_end = {t_end!r} is not a whole number of steps "
                         f"of dt = {dt!r}")

    rows = {name: [] for name in
            ("t", "masses", "entropy", "l2", "l4", "linf", "fisher", "reaction")}
    snapshots: list[State] = []

    def record(st: State) -> None:
        rows["t"].append(st.t)
        rows["masses"].append(q_matrix @ st.means() * volume)
        h = st.fields - a_inf.reshape((-1,) + (1,) * grid.ndim)
        rows["entropy"].append(relative_entropy(st.fields, a_inf, grid))
        rows["l2"].append(weighted_norm(h, a_inf, 2, grid))
        rows["l4"].append(weighted_norm(h, a_inf, 4, grid))
        rows["linf"].append(weighted_norm(h, a_inf, math.inf, grid))
        if st.fields.min() > 0:
            fisher, reaction = entropy_dissipation(st.fields, net, a_inf, grid)
        else:
            fisher, reaction = math.nan, math.nan
        rows["fisher"].append(fisher)
        rows["reaction"].append(reaction)

    record(state)
    snapshots.append(state)
    outputs = k = 0
    while k < n_steps:  # one advance per output interval
        chunk = min(output_every, n_steps - k)
        state = stepper.advance(state, chunk)
        k += chunk
        # keep recorded times exact multiples of dt
        state = State(t=k * dt, fields=state.fields, grid=grid)
        record(state)
        outputs += 1
        if snapshot_every and outputs % snapshot_every == 0 and k != n_steps:
            snapshots.append(state)
    if state is not snapshots[-1]:
        snapshots.append(state)

    series = DiagnosticsSeries(
        t=np.array(rows["t"]), masses=np.array(rows["masses"]),
        entropy=np.array(rows["entropy"]), l2=np.array(rows["l2"]),
        l4=np.array(rows["l4"]), linf=np.array(rows["linf"]),
        fisher=np.array(rows["fisher"]), reaction=np.array(rows["reaction"]))
    return SimulationResult(series=series, snapshots=tuple(snapshots),
                            equilibrium=eq, dt=dt)
