"""Quadratic mass-action reaction-diffusion networks with detailed balance.

Conserved masses and equilibria, the spectral gap of the linearised
diffusion-reaction operator on boxes, finite-difference simulation with
no-flux boundaries, and relaxation diagnostics.
"""

__version__ = "0.1.0"

from .diagnostics import DiagnosticsSeries, FitResult, entropy_dissipation, \
    fit_decay_rate, relative_entropy, weighted_norm
from .equilibrium import ConservedMasses, EquilibriumError, EquilibriumState, \
    NewtonDivergenceError, NoDetailedBalanceError, conserved_masses, \
    detailed_balance_equilibrium, four_species_equilibrium
from .geometry import Box, Grid, Interval, Rectangle
from .linearised import LinearisedMatrix, NotEquilibriumError, SpectralGapReport, \
    analytic_gap_bound_four_species, linearised_matrix, operator_spectral_gap, \
    weighted_spectrum
from .network import Kinetics, Reaction, ReactionNetwork, \
    StoichiometryDecomposition, ValidationReport, conservation_basis, decompose, \
    is_four_species, production_term, stoichiometric_matrix, validate_network
from .parser import ParseError, parse_network, serialize_network
from .solver import InitialSpec, NonPositivityError, SimulationResult, SpeciesProfile, \
    State, Stepper, build_initial, default_dt, simulate, write_snapshot_csv

__all__ = [
    "Box", "ConservedMasses", "DiagnosticsSeries", "EquilibriumError",
    "EquilibriumState", "FitResult", "Grid", "InitialSpec", "Interval", "Kinetics",
    "LinearisedMatrix", "NewtonDivergenceError", "NoDetailedBalanceError",
    "NonPositivityError", "NotEquilibriumError", "ParseError", "Reaction",
    "ReactionNetwork", "Rectangle", "SimulationResult", "SpeciesProfile",
    "SpectralGapReport", "State", "Stepper", "StoichiometryDecomposition",
    "ValidationReport", "analytic_gap_bound_four_species", "build_initial",
    "conservation_basis", "conserved_masses", "decompose", "default_dt",
    "detailed_balance_equilibrium", "entropy_dissipation", "fit_decay_rate",
    "four_species_equilibrium", "is_four_species", "linearised_matrix",
    "operator_spectral_gap", "parse_network", "production_term", "relative_entropy",
    "serialize_network", "simulate", "stoichiometric_matrix",
    "validate_network", "weighted_norm", "weighted_spectrum", "write_snapshot_csv",
]
