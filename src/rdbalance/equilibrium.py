"""Conserved masses and detailed-balance equilibria.

A positive vector a* is a detailed-balance equilibrium iff every reaction
flux vanishes, i.e. W log a* = log(kf/kb) componentwise (W rows are
beta - alpha).  With mu the least-squares solution of that system, every
candidate has the form

    log a*(theta) = mu + Q^T theta,        theta in R^q,

so W log a* = W mu for every theta: balance (the Wegscheider condition) is
decided once, on the result, by ``balance_residual``, as L decides it.
The masses Q a*(theta) = m pin theta; that is the gradient of the strictly
convex dual potential sum_i a_i(theta) - m . theta, whose Hessian Q diag(a)
Q^T is positive definite, so damped Newton converges from theta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Reaction, ReactionNetwork, StoichiometryDecomposition


class EquilibriumError(Exception):
    pass


class NoDetailedBalanceError(EquilibriumError):
    """No state balances every reaction (the Wegscheider condition fails)."""


class NewtonDivergenceError(EquilibriumError):
    """Newton failed, or a* is not strictly positive and finite: most often
    no positive state realizes the masses (a mixed-sign law's mass is
    admitted at any value, so Newton decides), or a* is past float range."""


@dataclass(frozen=True)
class ConservedMasses:
    """Values of Q . integral(a), one per conservation law."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class EquilibriumState:
    """Strictly positive equilibrium, its mass vector and ``balance_residual``."""

    a_inf: tuple[float, ...]
    masses: ConservedMasses
    db_residual: float

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.a_inf, dtype=float)


def conserved_masses(stoich: StoichiometryDecomposition, a0_mean,
                     volume: float = 1.0) -> ConservedMasses:
    """Masses m = Q . a0_mean * |Omega| of (nonnegative) mean initial data;
    ``detailed_balance_equilibrium`` decides which masses are admissible."""
    a0_mean = np.asarray(a0_mean, dtype=float)
    if a0_mean.shape != (stoich.Q.shape[1],):
        raise ValueError("mean initial data has the wrong length")
    if np.any(a0_mean < 0):
        raise ValueError("mean initial data must be nonnegative")
    return ConservedMasses(tuple(stoich.Q.astype(float) @ a0_mean * float(volume)))


def balance_residual(net: ReactionNetwork, a: np.ndarray) -> float:
    """Detailed-balance residual max_r |K_r| / max(kf_r a^alpha, kb_r a^beta)
    at a strictly positive, finite ``a``, exactly, from logarithms: max_r
    1 - exp(-|log(kf_r/kb_r) - (W log a)_r|), so no flux can overflow it."""
    kinetics = net.kinetics
    return float(-np.expm1(-np.max(np.abs(kinetics.log_ratio - np.log(a) @ kinetics.wt))))


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
    return EquilibriumState(a, ConservedMasses((m12, m14, m32)),
                            balance_residual(_SWAP, np.array(a)))


DB_TOL = 1e-10  # balance_residual of an equilibrium
_SWAP = ReactionNetwork(("A1", "A2", "A3", "A4"),  # four_species_equilibrium's network
                        (Reaction((1, 0, 1, 0), (0, 1, 0, 1), 1.0, 1.0),), (1.0,) * 4)
_NEWTON_TOL = 1e-12  # mass error |(Q a - m)_i| relative to |m_i|
_ROUNDOFF = 64.0 * np.finfo(float).eps  # ulp-scale slack, relative to the terms
_MAX_EFOLDS = 16.0  # largest change of any log a_i in one Newton step
_MAX_NEWTON_ITER = 1600  # above a*, one e-fold per step; floats span ~1455


@np.errstate(over="ignore", invalid="ignore")  # the checks refuse inf, 0 and NaN
def detailed_balance_equilibrium(net: ReactionNetwork,
                                 stoich: StoichiometryDecomposition,
                                 m) -> EquilibriumState:
    """Strictly positive equilibrium with prescribed conserved masses.

    Each mass must be finite, and > 0 where its row of Q has no negative
    coefficient (such a law is positive at every positive state), else a
    ValueError names the law.  A mixed-sign law's mass may be any real, so
    Newton alone decides whether the masses are realizable.

    A ratio kf/kb past float range is refused; then Newton on theta solves
    Q exp(mu + Q^T theta) = m over all of float range, damped by a line
    search on the convex dual potential and a step cap of ``_MAX_EFOLDS``.
    It stops when each law i matches on its own, |(Q a - m)_i| within
    ``_NEWTON_TOL`` |m_i| or the roundoff of that law's own terms.
    Its failure, or a state not strictly positive and finite, raises
    NewtonDivergenceError; ``balance_residual`` over ``DB_TOL``, NoDetailedBalanceError.
    """
    m = m.vector if isinstance(m, ConservedMasses) else np.asarray(m, dtype=float)
    q = stoich.Q.shape[0]
    if m.shape != (q,):
        raise ValueError(f"expected {q} masses ({', '.join(stoich.labels)})")
    for label, row, value in zip(stoich.labels, stoich.Q, m):
        if not (math.isfinite(value) and (value > 0 or (row < 0).any())):
            raise ValueError(f"conserved mass {label} = {value:g} must "
                             f"be strictly positive and finite")

    ratio = net.kf_array() / net.kb_array()
    for k, (r, value) in enumerate(zip(net.reactions, ratio)):
        if not 0 < value < math.inf:
            raise EquilibriumError(f"reaction {k + 1}: rate ratio kf/kb = "
                                   f"{r.kf:g}/{r.kb:g} is outside float range")
    mu, *_ = np.linalg.lstsq(stoich.W.astype(float), np.log(ratio), rcond=None)

    Q = stoich.Q.astype(float)
    QT = Q.T
    Q_abs = np.abs(Q)
    mass_tol = _NEWTON_TOL * np.abs(m)
    theta = np.zeros(q)

    def matched(a, log_a):
        # each law to its own mass and terms |Q| a, known to the ulps of log a:
        # a small m_i matches only to their roundoff; inf and NaN match nothing
        g = Q @ a - m
        terms = Q_abs @ (a * np.maximum(1.0, np.abs(log_a)))
        tol = np.maximum(mass_tol, _ROUNDOFF * terms)
        return g, bool(((np.abs(g) <= tol) & (tol < math.inf)).all())

    def potential(th):
        a = np.exp(log_a := mu + QT @ th)
        return log_a, a, float(a.sum() - m @ th)

    log_a, a, phi = potential(theta)
    for _ in range(_MAX_NEWTON_ITER):
        g, done = matched(a, log_a)
        if done:
            break
        hessian = (Q * a) @ QT
        try:
            delta = np.linalg.solve(hessian, -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Newton system: {exc}") from None
        # below a*, Newton's step of ~ m / a e-folds would overflow exp; a NaN
        # in delta leaves it uncapped, and the line search then refuses it
        efolds = float(np.abs(QT @ delta).max())
        if efolds > _MAX_EFOLDS:
            delta /= efolds / _MAX_EFOLDS
        slope = float(g @ delta)
        # ulp-scale slack admits the full step once phi cannot resolve its
        # decrease; a shorter step must decrease phi, or Newton creeps forever
        slack = _ROUNDOFF * max(1.0, abs(phi))
        step = 1.0
        while step > 1e-14:
            log_new, a_new, phi_new = potential(theta_new := theta + step * delta)
            if math.isfinite(phi_new) and \
                    phi_new <= phi + 1e-4 * step * slope + slack:
                break
            step, slack = 0.5 * step, 0.0
        else:
            raise NewtonDivergenceError("line search failed to make progress")
        theta, log_a, a, phi = theta_new, log_new, a_new, phi_new
    else:
        raise NewtonDivergenceError(
            f"no convergence in {_MAX_NEWTON_ITER} iterations (masses may be "
            f"unrealizable by a positive state)")

    if not np.all((a > 0) & (a < math.inf)):
        raise NewtonDivergenceError(f"a* in [{a.min():.3g}, {a.max():.3g}] "
                                    f"is not strictly positive and finite")
    residual = balance_residual(net, a)
    if not residual <= DB_TOL:
        raise NoDetailedBalanceError(f"no detailed-balance equilibrium: "
                                     f"relative flux residual {residual:.3e}")
    if not np.isfinite(net.kinetics.fluxes(a)[0]).all():
        raise EquilibriumError("reaction fluxes at a* overflow float range")
    return EquilibriumState(tuple(a), ConservedMasses(tuple(m)), residual)
