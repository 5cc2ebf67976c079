"""Command-line front end: validate, equilibrium, gap, simulate, fit.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse error,
3 numerical failure (non-positivity, Newton divergence, no detailed
balance, non-equilibrium input).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .csvtable import TableWriter, write_table
from .diagnostics import DiagnosticsSeries, fit_decay_rate
from .equilibrium import EquilibriumError, detailed_balance_equilibrium
from .geometry import MAX_NDIM, Box, Grid
from .linearised import NotEquilibriumError, operator_spectral_gap
from .network import ReactionNetwork, decompose, validate_network
from .parser import ParseError, parse_network
from .solver import SCHEMES, InitialSpec, NonPositivityError, SpeciesProfile, \
    build_initial, reference_equilibrium, simulate, snapshot_table, write_snapshot_csv

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
        modes.append((mode, _finite(m.group(3))))
    return tuple(modes)


def _parse_scheme(text: str) -> str:
    if text not in SCHEMES:
        raise ConfigError(f"scheme must be {' or '.join(SCHEMES)}, got {text!r}")
    return text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {text}")
    return value


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
    lines: dict[str, int]  # key -> its line in the file
    config_hash: str  # of the config file's bytes: the provenance of its outputs
    network_path: Path
    grid: Grid
    scheme: str
    dt: float | None
    t_end: float
    output_every: int
    output_dir: Path
    snapshot_every: int  # 0: the initial and final snapshots only
    species_profiles: dict[str, SpeciesProfile] | None
    initial_csv: Path | None


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
        raise ConfigError(f"{path}:{min(lines[key] for key in unknown)}: "
                          f"unknown config keys: {sorted(unknown)}")
    for required in ("network", "domain", "grid", "t_end"):
        if required not in entries:
            raise ConfigError(f"{path}: missing config key {required!r}")

    domain = located("domain", _parse_domain)
    grid = located("grid", _parse_grid, domain)
    scheme = located("scheme", _parse_scheme, default="strang")
    dt = located("dt", _positive, float)
    t_end = located("t_end", _positive, float)
    output_every = located("output_every", _positive, int, default=1)
    snapshot_every = located("snapshot_every", _nonnegative, default=0)

    initial_csv = None
    profiles: dict[str, SpeciesProfile] | None = None
    if "initial_csv" in entries:
        if species_data:
            raise ConfigError(f"{path}:{lines['initial_csv']}: give either "
                              f"initial_csv or species.* keys, not both")
        initial_csv = base_dir / entries["initial_csv"]
    else:
        if not species_data:
            raise ConfigError(f"{path}: missing initial data (species.*.base or initial_csv)")
        profiles = {}
        for name, data in sorted(species_data.items()):
            if "base" not in data:
                raise ConfigError(f"{path}:{lines[data['modes']]}: "
                                  f"species.{name}.base is required")
            profiles[name] = SpeciesProfile(
                base=located(data["base"], _finite),
                modes=located(data["modes"], _parse_modes, domain.ndim)
                if "modes" in data else ())

    return RunConfig(
        path=path, lines=lines, config_hash=hashlib.sha256(raw).hexdigest()[:12],
        network_path=base_dir / entries["network"], grid=grid, scheme=scheme,
        dt=dt, t_end=t_end, output_every=output_every,
        output_dir=base_dir / entries.get("output_dir", "out"),
        snapshot_every=snapshot_every, species_profiles=profiles,
        initial_csv=initial_csv)


def _load_network(path) -> ReactionNetwork | None:
    """The network at ``path``; None, its validation report on stderr, if inadmissible."""
    net = parse_network(Path(path).read_text())
    report = validate_network(net)
    if not report.ok:
        print(report, file=sys.stderr)
        return None
    return net


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
        raise ConfigError(f"{config.path}: missing initial data for species {missing}")
    extra = [s for s in config.species_profiles if s not in net.species]
    if extra:
        line = min(config.lines[f"species.{s}.base"] for s in extra)
        raise ConfigError(f"{config.path}:{line}: initial data for unknown species {extra}")
    return InitialSpec(profiles=tuple(config.species_profiles[s]
                                      for s in net.species))


# --------------------------------------------------------------------------
# Subcommands.


def _cmd_validate(args) -> int:
    report = validate_network(parse_network(Path(args.network).read_text()))
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _equilibrium_from_args(net, args):
    if args.masses is None:
        config = load_config(args.from_initial)
        state = build_initial(_initial_spec(config, net), config.grid,
                              species_names=net.species)
        return reference_equilibrium(net, state)
    return detailed_balance_equilibrium(net, decompose(net),
                                        _parse_floats(args.masses, "mass vector"))


def _cmd_equilibrium(args) -> int:
    if (net := _load_network(args.network)) is None:
        return EXIT_INVALID
    eq = _equilibrium_from_args(net, args)
    for label, value in zip(net.structure.labels, eq.masses.values):
        print(f"{label} = {value:.17g}")
    for name, value in zip(net.species, eq.a_inf):
        print(f"{name} = {value:.17g}")
    print(f"db_residual = {eq.db_residual:.3e}")
    return EXIT_OK


def _cmd_gap(args) -> int:
    if (net := _load_network(args.network)) is None:
        return EXIT_INVALID
    domain = _parse_domain(args.domain)
    if args.a_inf is not None:
        a_inf = _parse_floats(args.a_inf, "equilibrium vector")
    else:
        a_inf = _equilibrium_from_args(net, args).vector
    report = operator_spectral_gap(net, a_inf, domain)
    print(f"lambda_star = {report.lambda_star:.9e}")
    if report.analytic_bound is not None:
        print(f"analytic_bound = {report.analytic_bound:.9e}")
    print(f"modes_examined = {report.modes_examined}")
    for k, (mu, gap) in enumerate(report.per_mode):
        print(f"mode {k}: mu = {mu:.9e}, gap = {gap:.9e}")
    return EXIT_OK


# A run hands its snapshots to a TableWriter process, which formats them
# while the run steps on, when they hold at least this many values (cells
# times species) and two CPUs are usable.  Measured on a 2-vCPU host:
# formatting inline takes 4.0 ms at 2^12 values, 14 ms at 2^14 and 50 ms at
# 2^16 per snapshot; the hand-off costs the run 0.6 ms to start the process,
# 0.3-0.6 ms per snapshot sent (the first too: the pipe holds a whole 2^16
# snapshot, so the run does not wait for the process to start) and 1.2 ms to
# close, and the process's own start takes about 19 ms of the other CPU.
# Six snapshots of 2^12 (tests/data/square.cfg) do not repay that start: the
# run takes 26 ms inline and 50 ms through the writer.
_WRITER_MIN_VALUES = 2 ** 14


def _snapshot_writer(n_values: int):
    """A TableWriter for snapshots of ``n_values`` values when it pays, else
    a context that writes nothing."""
    if (n_values >= _WRITER_MIN_VALUES and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return TableWriter()
    return contextlib.nullcontext()


def _run_one_config(config_path) -> int:
    config = load_config(config_path)
    if (net := _load_network(config.network_path)) is None:
        return EXIT_INVALID
    provenance = f"rdbalance {__version__} {config.config_hash}"
    written = [config.output_dir / "diag.csv"]  # then the snapshots, as they are taken
    part = None  # the rows of the final snapshot this process formats, until joined
    try:
        with _snapshot_writer(config.grid.n_cells * net.n_species) as writer:
            def take(state, step, final):
                nonlocal part
                path = config.output_dir / f"snapshot_{step:08d}.csv"
                written.append(path)
                config.output_dir.mkdir(parents=True, exist_ok=True)
                if writer is None:
                    write_snapshot_csv(path, state, net.species, comment=provenance)
                elif not final:
                    writer.send(path, *snapshot_table(state, net.species), comment=provenance)
                else:  # no step is left to overlap: the writer formats the
                    # first half of the rows while this process formats the rest
                    header, columns, axes = snapshot_table(state, net.species)
                    half = (state.grid.n_cells + 1) // 2
                    writer.send(path, header, [c[:half] for c in columns], axes, provenance)
                    part = path.with_name(path.name + ".part")
                    try:
                        write_table(part, header, columns, axes, start=half)
                    except OSError as exc:  # named by its snapshot, after the
                        writer.close()  # writer's own error, as inline
                        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None

            result = simulate(net, config.grid, _initial_spec(config, net), config.dt,
                              config.t_end, output_every=config.output_every,
                              scheme=config.scheme, snapshot_every=config.snapshot_every,
                              on_snapshot=take)
            if config.dt is None:
                print(f"dt = {result.dt:.6g} (heuristic)")
            if part is not None:
                # the writer's error, naming its file, comes before diag.csv, as inline
                writer.close()
                with open(written[-1], "ab") as out, open(part, "rb") as rest:
                    shutil.copyfileobj(rest, out)
                part.unlink()
                part = None
            result.series.write_csv(written[0], comment=provenance)  # in take's directory
    finally:
        if part is not None:  # not joined: leave neither half of the final snapshot
            for path in (part, written[-1]):
                if path.is_file():
                    path.unlink()
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    return max(_run_one_config(config_path) for config_path in args.config)


def _cmd_fit(args) -> int:
    series = DiagnosticsSeries.read_csv(args.diagnostics)
    square = args.column.endswith("sq")
    y = series.column(args.column[:-2] if square else args.column)
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


# built on the first dispatch and kept: parse_args reads it without changing it
_parser = functools.cache(build_parser)


def dispatch(argv) -> int:
    """Run one CLI invocation and return its exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EquilibriumError, NonPositivityError, NotEquilibriumError,
            FloatingPointError) as exc:
        # NotEquilibriumError subclasses ValueError, so this clause goes first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, ConfigError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
