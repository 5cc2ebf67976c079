"""Command-line front end: validate, equilibrium, gap, simulate, fit.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse error,
3 numerical failure (non-positivity, Newton divergence, no detailed
balance, non-equilibrium input).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsSeries, fit_decay_rate
from .equilibrium import EquilibriumError, detailed_balance_equilibrium
from .geometry import MAX_NDIM, Box, Grid
from .linearised import NotEquilibriumError, operator_spectral_gap
from .network import ReactionNetwork, decompose, validate_network
from .parser import ParseError, parse_network
from .solver import InitialSpec, NonPositivityError, SpeciesProfile, build_initial, \
    reference_equilibrium, simulate, write_snapshot_csv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


_DOMAIN_SIDES = {"interval": (1, 1), "rect": (2, 2), "box": (1, MAX_NDIM)}


def _parse_domain(text: str) -> Box:
    """'interval:L', 'rect:Lx,Ly' or 'box:L1,...,Ld' with d <= MAX_NDIM."""
    kind, _, sides = text.strip().partition(":")
    sides = sides.split(",") if sides.strip() else []
    low, high = _DOMAIN_SIDES.get(kind, (1, 0))  # an unknown kind fits no count
    if not low <= len(sides) <= high:
        raise ConfigError(f"bad domain {text!r} (use interval:L, rect:Lx,Ly or "
                          f"box:L1,...,Ld with d <= {MAX_NDIM})")
    return Box(tuple(float(side) for side in sides))


def _parse_grid(text: str, domain: Box) -> Grid:
    """'n1,...,nd', or one n for every axis."""
    try:
        shape = tuple(int(n) for n in text.split(","))
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None
    return Grid(domain, shape * domain.ndim if len(shape) == 1 else shape)


def _parse_modes(text: str, ndim: int):
    """Mode list '(k1,...,kd):amp ...'; the parentheses may be left out."""
    modes = []
    for token in text.split():
        m = re.fullmatch(r"(\()?(\d+(?:,\d+)*)(?(1)\)):([-+0-9.eE]+)", token)
        if m is None:
            raise ConfigError(f"bad mode entry {token!r} (expected (k1,...,kd):amp)")
        mode = tuple(int(k) for k in m.group(2).split(","))
        if len(mode) != ndim:
            raise ConfigError(f"mode {token!r} does not match a {ndim}-d domain")
        modes.append((mode, float(m.group(3))))
    return tuple(modes)


def _parse_scheme(text: str) -> str:
    if text not in ("strang", "imex"):
        raise ConfigError(f"scheme must be strang or imex, got {text!r}")
    return text


def _positive(text: str, kind):
    value = kind(text)
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"must be positive, got {text}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ConfigError(f"must be >= 0, got {text}")
    return value


@dataclass(frozen=True)
class RunConfig:
    path: Path
    raw: bytes
    network_path: Path
    domain: Box
    grid: Grid
    scheme: str
    dt: float | None
    t_end: float
    output_every: int
    output_dir: Path
    snapshot_every: int | None
    species_profiles: dict[str, SpeciesProfile] | None
    initial_csv: Path | None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()[:12]


_TOP_KEYS = {"network", "domain", "grid", "scheme", "dt", "t_end",
             "output_every", "output_dir", "snapshot_every", "initial_csv"}


def load_config(path) -> RunConfig:
    """Flat 'key = value' run configuration; the experiment record.

    Dotted keys give one nesting level for per-species initial data:
    species.<name>.base and species.<name>.modes.  Relative paths resolve
    against the config file's directory.  A malformed value is a ConfigError
    that names its file, line and key.
    """
    path = Path(path)
    raw = path.read_bytes()
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = content.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        entries[key], lines[key] = value, lineno

    def located(key, parse, *args, default=None):
        """parse(entries[key], *args), or ``default`` when the key is absent;
        a failure names the key's line."""
        if key not in entries:
            return default
        try:
            return parse(entries[key], *args)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{path}:{lines[key]}: {key}: {exc}") from None

    base_dir = path.parent
    species_data: dict[str, dict[str, str]] = {}  # name -> field -> key
    for key in list(entries):
        if key.startswith("species."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in ("base", "modes"):
                raise ConfigError(f"{path}:{lines[key]}: bad species key {key!r}")
            species_data.setdefault(parts[1], {})[parts[2]] = key
    unknown = {key for key in entries if not key.startswith("species.")} - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("network", "domain", "grid", "t_end"):
        if required not in entries:
            raise ConfigError(f"missing config key {required!r}")

    domain = located("domain", _parse_domain)
    grid = located("grid", _parse_grid, domain)
    scheme = located("scheme", _parse_scheme, default="strang")
    dt = located("dt", _positive, float)
    t_end = located("t_end", _positive, float)
    output_every = located("output_every", _positive, int, default=1)
    snapshot_every = located("snapshot_every", _nonnegative)

    initial_csv = None
    profiles: dict[str, SpeciesProfile] | None = None
    if "initial_csv" in entries:
        if species_data:
            raise ConfigError("give either initial_csv or species.* keys, not both")
        initial_csv = base_dir / entries["initial_csv"]
    else:
        if not species_data:
            raise ConfigError("missing initial data (species.*.base or initial_csv)")
        profiles = {}
        for name, data in sorted(species_data.items()):
            if "base" not in data:
                raise ConfigError(f"species.{name}.base is required")
            profiles[name] = SpeciesProfile(
                base=located(data["base"], float),
                modes=located(data["modes"], _parse_modes, domain.ndim)
                if "modes" in data else ())

    return RunConfig(
        path=path, raw=raw, network_path=base_dir / entries["network"],
        domain=domain, grid=grid, scheme=scheme, dt=dt, t_end=t_end,
        output_every=output_every,
        output_dir=base_dir / entries.get("output_dir", "out"),
        snapshot_every=snapshot_every, species_profiles=profiles,
        initial_csv=initial_csv)


def _load_network(path) -> ReactionNetwork:
    return parse_network(Path(path).read_text())


def _parse_floats(text: str, what: str) -> np.ndarray:
    """Comma-separated floats; a blank string is the empty vector."""
    try:
        return np.array([float(v) for v in text.split(",")] if text.strip() else [])
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}") from None


def _initial_spec(config: RunConfig, net: ReactionNetwork) -> InitialSpec:
    if config.initial_csv is not None:
        return InitialSpec(csv_path=str(config.initial_csv))
    missing = [s for s in net.species if s not in config.species_profiles]
    if missing:
        raise ConfigError(f"missing initial data for species {missing}")
    extra = [s for s in config.species_profiles if s not in net.species]
    if extra:
        raise ConfigError(f"initial data for unknown species {extra}")
    return InitialSpec(profiles=tuple(config.species_profiles[s]
                                      for s in net.species))


# --------------------------------------------------------------------------
# Subcommands.


def _cmd_validate(args) -> int:
    net = _load_network(args.network)
    report = validate_network(net)
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _equilibrium_from_args(net, args):
    if args.masses is None:
        config = load_config(args.from_initial)
        state = build_initial(_initial_spec(config, net), config.grid,
                              species_names=net.species)
        return reference_equilibrium(net, state)
    stoich = decompose(net)
    m = _parse_floats(args.masses, "mass vector")
    if m.shape != (stoich.n_conserved,):
        raise ConfigError(
            f"expected {stoich.n_conserved} masses "
            f"({', '.join(stoich.label(k) for k in range(stoich.n_conserved))})")
    return stoich, detailed_balance_equilibrium(net, stoich, m)


def _cmd_equilibrium(args) -> int:
    net = _load_network(args.network)
    stoich, eq = _equilibrium_from_args(net, args)
    for k in range(stoich.n_conserved):
        print(f"{stoich.label(k)} = {eq.masses.values[k]:.17g}")
    for name, value in zip(net.species, eq.a_inf):
        print(f"{name} = {value:.17g}")
    print(f"db_residual = {eq.db_residual:.3e}")
    return EXIT_OK


def _cmd_gap(args) -> int:
    net = _load_network(args.network)
    domain = _parse_domain(args.domain)
    if args.a_inf is not None:
        a_inf = _parse_floats(args.a_inf, "equilibrium vector")
    else:
        _, eq = _equilibrium_from_args(net, args)
        a_inf = eq.vector
    report = operator_spectral_gap(net, a_inf, domain)
    print(f"lambda_star = {report.lambda_star:.9f}")
    if report.analytic_bound is not None:
        print(f"analytic_bound = {report.analytic_bound:.9f}")
    print(f"modes_examined = {report.modes_examined}")
    for k, (mu, gap) in enumerate(report.per_mode):
        print(f"mode {k}: mu = {mu:.9f}, gap = {gap:.9f}")
    return EXIT_OK


def _run_one_config(config_path) -> int:
    config = load_config(config_path)
    net = _load_network(config.network_path)
    report = validate_network(net)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_INVALID
    result = simulate(net, config.grid, _initial_spec(config, net), config.dt,
                      config.t_end, output_every=config.output_every,
                      scheme=config.scheme, snapshot_every=config.snapshot_every)
    if config.dt is None:
        print(f"dt = {result.dt:.6g} (heuristic)")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    provenance = f"rdbalance {__version__} {config.config_hash}"
    diag_path = config.output_dir / "diag.csv"
    result.series.write_csv(diag_path, comment=provenance)
    print(f"wrote {diag_path}")
    for snap in result.snapshots:
        steps = int(round(snap.t / result.dt))
        snap_path = config.output_dir / f"snapshot_{steps:08d}.csv"
        write_snapshot_csv(snap_path, snap, net.species, comment=provenance)
        print(f"wrote {snap_path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    return max(_run_one_config(config_path) for config_path in args.config)


def _cmd_fit(args) -> int:
    series = DiagnosticsSeries.read_csv(args.diagnostics)
    name = args.column
    square = False
    if name.endswith("sq"):
        name, square = name[:-2], True
    y = series.column(name)
    if square:
        y = y * y
    window = None
    if args.window is not None:
        bounds = _parse_floats(args.window, "window")
        if bounds.shape != (2,):
            raise ConfigError("window must be 'a,b'")
        window = (float(bounds[0]), float(bounds[1]))
    fit = fit_decay_rate(series.t, y, window=window)
    print(f"lambda_fit = {fit.rate:.9g}")
    print(f"r_squared = {fit.r_squared:.9g}")
    if fit.degenerate:
        print("degenerate = true")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rdbalance",
        description="Quadratic mass-action reaction-diffusion networks with "
                    "detailed balance: equilibria, spectral gaps, simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file for admissibility")
    p.add_argument("network")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("equilibrium", help="detailed-balance equilibrium")
    p.add_argument("network")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--masses", help="comma-separated conserved masses")
    group.add_argument("--from-initial", metavar="CONFIG",
                       help="derive masses from a run config's initial data")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("gap", help="spectral gap of the linearised operator")
    p.add_argument("network")
    p.add_argument("--domain", required=True,
                   help="interval:L, rect:Lx,Ly or box:L1,...,Ld (d <= 4)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--a-inf", help="comma-separated equilibrium values")
    group.add_argument("--masses", help="comma-separated conserved masses")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("simulate", help="run configs and write CSV outputs")
    p.add_argument("config", nargs="+")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit an exponential decay rate to a column")
    p.add_argument("diagnostics")
    p.add_argument("--column", required=True,
                   help="CSV column, optionally with 'sq' suffix (e.g. L2sq)")
    p.add_argument("--window", help="time window 'a,b'")
    p.set_defaults(func=_cmd_fit)
    return ap


def dispatch(argv) -> int:
    """Run one CLI invocation and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EquilibriumError, NonPositivityError, NotEquilibriumError) as exc:
        # NotEquilibriumError subclasses ValueError, so this clause goes first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, ConfigError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
