"""Conserved masses and detailed-balance equilibria.

A positive vector a* is a detailed-balance equilibrium iff every reaction
flux vanishes, i.e. W log a* = log(kf/kb) componentwise (W rows are
beta - alpha).  Solvability of that linear system is the Wegscheider
condition; when it holds the solution family is

    log a*(theta) = mu + Q^T theta,        theta in R^q,

and theta is pinned by the conserved masses Q a*(theta) = m.  That
equation is the gradient of the strictly convex dual potential
phi(theta) = sum_i a_i(theta) - m . theta, whose Hessian Q diag(a) Q^T is
symmetric positive definite, so damped Newton with backtracking converges
globally from theta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ReactionNetwork, StoichiometryDecomposition


class EquilibriumError(Exception):
    pass


class NoDetailedBalanceError(EquilibriumError):
    """W log a = log(kf/kb) has no solution (Wegscheider condition fails)."""


class NewtonDivergenceError(EquilibriumError):
    """The mass-matching Newton iteration failed; for strictly positive,
    realizable masses this indicates a bug or an infeasible mass vector."""


@dataclass(frozen=True)
class ConservedMasses:
    """Values of Q . integral(a), one per conservation law."""

    values: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.labels is not None and len(self.labels) != len(self.values):
            raise ValueError("one label per mass required")

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def label(self, k: int) -> str:
        return self.labels[k] if self.labels is not None else f"m{k + 1}"


@dataclass(frozen=True)
class EquilibriumState:
    """Strictly positive equilibrium and the mass vector it realizes."""

    a_inf: tuple[float, ...]
    masses: ConservedMasses
    db_residual: float

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.a_inf, dtype=float)


def conserved_masses(stoich: StoichiometryDecomposition, a0_mean,
                     volume: float = 1.0) -> ConservedMasses:
    """Masses m = Q . a0_mean * |Omega| of (nonnegative) mean initial data.

    Raises ValueError when a component is not strictly positive, which
    means the positivity hypothesis on the initial condition fails and no
    strictly positive equilibrium is compatible with the data.
    """
    a0_mean = np.asarray(a0_mean, dtype=float)
    if a0_mean.shape != (stoich.Q.shape[1],):
        raise ValueError("mean initial data has the wrong length")
    if np.any(a0_mean < 0):
        raise ValueError("mean initial data must be nonnegative")
    m = stoich.Q.astype(float) @ a0_mean * float(volume)
    for k, value in enumerate(m):
        if not value > 0:
            raise ValueError(
                f"conserved mass {stoich.label(k)} = {value:g} must be strictly "
                f"positive (initial-data positivity hypothesis fails)")
    return ConservedMasses(tuple(m), labels=stoich.labels)


_FOUR_SPECIES_LABELS = ("M12", "M14", "M32")


def four_species_equilibrium(m12: float, m14: float, m32: float,
                             m34: float) -> EquilibriumState:
    """Closed-form equilibrium of the four-species swap with unit rates.

    With M = M12 + M34 = M14 + M32 the unique positive equilibrium is
    a* = (M12*M14/M, M12*M32/M, M32*M34/M, M14*M34/M); it satisfies
    a1*a3 = a2*a4 and realizes the given pair masses.
    """
    for name, value in zip(("M12", "M14", "M32", "M34"), (m12, m14, m32, m34)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"mass {name} must be strictly positive, got {value}")
    total = m12 + m34
    if abs((m12 + m34) - (m14 + m32)) > 1e-12 * total:
        raise ValueError(
            f"inconsistent masses: M12 + M34 = {m12 + m34:g} differs from "
            f"M14 + M32 = {m14 + m32:g}")
    a = (m12 * m14 / total, m12 * m32 / total, m32 * m34 / total, m14 * m34 / total)
    residual = abs(a[0] * a[2] - a[1] * a[3])
    return EquilibriumState(a, ConservedMasses((m12, m14, m32),
                                               labels=_FOUR_SPECIES_LABELS), residual)


def _relative_db_residual(forward: np.ndarray,
                          backward: np.ndarray) -> tuple[float, float]:
    """(absolute, relative) detailed-balance residual max_r |K_r| from the
    one-sided fluxes of ``Kinetics.fluxes``."""
    K = np.abs(forward - backward)
    scale = np.maximum(np.maximum(forward, backward), 1e-300)
    return float(np.max(K)), float(np.max(K / scale))


_WEGSCHEIDER_TOL = 1e-9  # least-squares residual of W mu = log(kf/kb)
_NEWTON_TOL = 1e-12  # mass error |Q a - m| relative to |m|
_ROUNDOFF = 64.0 * np.finfo(float).eps  # ulp-scale slack, relative to the terms
_MAX_NEWTON_ITER = 200


def detailed_balance_equilibrium(net: ReactionNetwork,
                                 stoich: StoichiometryDecomposition,
                                 m) -> EquilibriumState:
    """Strictly positive equilibrium with prescribed conserved masses.

    Two stages: solve W mu = log(kf/kb) by least squares (residual beyond
    ``_WEGSCHEIDER_TOL`` means no detailed-balance equilibrium exists); then
    Newton on theta for Q exp(mu + Q^T theta) = m, damped by a backtracking
    line search on the convex dual potential.
    """
    labels = m.labels if isinstance(m, ConservedMasses) else stoich.labels
    m = m.vector if isinstance(m, ConservedMasses) else np.asarray(m, dtype=float)
    q = stoich.Q.shape[0]
    if m.shape != (q,):
        raise ValueError(f"expected {q} conserved masses, got {m.shape}")
    for k, value in enumerate(m):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"conserved mass {stoich.label(k)} = {value:g} must "
                             f"be strictly positive and finite")

    W = stoich.W.astype(float)
    c = np.log(net.kf_array() / net.kb_array())
    mu, *_ = np.linalg.lstsq(W, c, rcond=None)
    residual = np.max(np.abs(W @ mu - c)) if c.size else 0.0
    if residual > _WEGSCHEIDER_TOL:
        raise NoDetailedBalanceError(
            f"no detailed-balance equilibrium: W log a = log(kf/kb) is "
            f"unsolvable (residual {residual:.3e})")

    Q = stoich.Q.astype(float)
    QT = Q.T
    Q_abs = np.abs(Q)
    theta = np.zeros(q)
    m_norm = np.linalg.norm(m)

    def mass_tol(a, rel):
        # Q a is a difference of terms of size |Q| a, so a small m cannot be
        # matched more closely than the roundoff of those terms
        terms = Q_abs @ a
        return max(rel * m_norm, _ROUNDOFF * math.sqrt(terms.dot(terms)))

    def potential(th):
        with np.errstate(over="ignore"):
            a = np.exp(mu + QT @ th)
        return a, float(a.sum() - m @ th)

    a, phi = potential(theta)
    for _ in range(_MAX_NEWTON_ITER):
        g = Q @ a - m
        # sqrt(g.g) is np.linalg.norm's arithmetic without its call overhead
        if math.sqrt(g.dot(g)) <= mass_tol(a, _NEWTON_TOL):
            break
        hessian = (Q * a) @ QT
        try:
            delta = np.linalg.solve(hessian, -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Newton system: {exc}") from None
        slope = float(g @ delta)
        # ulp-scale slack keeps the full Newton step acceptable once the
        # merit decrease drops below the resolution of phi
        slack = _ROUNDOFF * max(1.0, abs(phi))
        step = 1.0
        while step > 1e-14:
            a_new, phi_new = potential(theta + step * delta)
            if np.isfinite(phi_new) and \
                    phi_new <= phi + 1e-4 * step * slope + slack:
                break
            step *= 0.5
        else:
            raise NewtonDivergenceError("line search failed to make progress")
        theta = theta + step * delta
        a, phi = a_new, phi_new
    else:
        raise NewtonDivergenceError(
            f"no convergence in {_MAX_NEWTON_ITER} iterations (masses may be "
            f"unrealizable by a positive state)")

    absolute, relative = _relative_db_residual(*net.kinetics.fluxes(a))
    mass_err = np.linalg.norm(Q @ a - m)
    if relative > 1e-10 or mass_err > mass_tol(a, 1e-10):
        raise NewtonDivergenceError(
            f"converged state fails invariants (db residual {relative:.2e}, "
            f"mass error {mass_err / m_norm if q else 0.0:.2e})")
    return EquilibriumState(tuple(a), ConservedMasses(tuple(m), labels=labels),
                            absolute)
