"""Linearised reaction operator at an equilibrium and the spectral gap of
diffusion + reaction on Neumann domains.

Writing a = a* + h and dropping quadratic terms, the reaction part acts as
the I x I matrix

    L[i, j] = - sum_r kf_r a*^alpha^r (alpha_i - beta_i)(alpha_j - beta_j) / a*_j,

which is symmetric in the inner product <u, v> = sum_i u_i v_i / a*_i and
negative semidefinite; its null space diag(a*) Ker W is the weighted
complement of Im W^T, where the conservation laws keep mode 0.  On a box
with no-flux boundaries the full operator h -> diag(d) Lap h + L h
block-diagonalizes over Neumann cosine modes: mode k contributes the matrix
-mu_k diag(d) + L, so mode 0's gap is L's smallest nonzero |eigenvalue|.
The spectral gap is the smallest block gap; only mode 0 and mode 1 can set
it, where mu_1, the Poincare constant of a box or of a grid (the
semi-discrete gap of a run), is the smallest first axis eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Grid
from .network import ReactionNetwork, is_four_species
from .equilibrium import DB_TOL, EquilibriumError, balance_residual


_SYMMETRY_TOL = 1e-9  # weighted asymmetry relative to max(1, |S|)


class NotEquilibriumError(ValueError):
    """The supplied state does not balance every reaction."""


@dataclass(frozen=True)
class LinearisedMatrix:
    """Reaction linearisation L and the weights 1/a*_i of its inner product."""

    matrix: np.ndarray
    weights: np.ndarray

    def symmetric(self) -> np.ndarray:
        """diag(sqrt(w)) L diag(1/sqrt(w)), symmetric when L is self-adjoint
        in the weighted inner product, with the same eigenvalues as L."""
        sqrt_w = np.sqrt(self.weights)
        return sqrt_w[:, np.newaxis] * self.matrix / sqrt_w[np.newaxis, :]


@dataclass(frozen=True)
class SpectralGapReport:
    """lambda_star and the blocks computed: mode 0, then mode 1 if it can
    set the gap, so ``modes_examined = len(per_mode)`` is 1 or 2."""

    lambda_star: float
    per_mode: tuple[tuple[float, float], ...]  # (laplacian eigenvalue, mode gap)
    analytic_bound: float | None = None

    @property
    def modes_examined(self) -> int:
        return len(self.per_mode)


def linearised_matrix(net: ReactionNetwork, a_inf) -> LinearisedMatrix:
    """Linearised reaction matrix at a detailed-balance equilibrium.

    Raises NotEquilibriumError when ``balance_residual`` at ``a_inf`` exceeds
    ``DB_TOL``, the solver's own rule, and the solver's EquilibriumError when
    a flux or an entry of L overflows float range.
    """
    a = np.asarray(a_inf, dtype=float)
    if a.shape != (net.n_species,) or not np.all((a > 0) & np.isfinite(a)):
        raise ValueError(
            "a_inf must be a strictly positive, finite vector, one per species")
    residual = balance_residual(net, a)
    if not residual <= DB_TOL:
        raise NotEquilibriumError(
            f"state is not an equilibrium (relative flux residual {residual:.3e})")
    kinetics = net.kinetics
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        if not np.isfinite(kinetics.fluxes(a)[0]).all():
            raise EquilibriumError("reaction fluxes at a* overflow float range")
        # kf a*^alpha / a*_j in logs: kf a*^alpha alone can underflow to 0
        log_a = np.log(a)
        scaled = np.exp((kinetics.log_kf + kinetics.alpha @ log_a)[:, np.newaxis] - log_a)
        L = -kinetics.wt @ (scaled * kinetics.wt.T)
    if not np.isfinite(L).all():
        raise EquilibriumError("linearised reaction matrix at a* overflows float range")
    return LinearisedMatrix(matrix=L, weights=1.0 / a)


def weighted_spectrum(lin: LinearisedMatrix) -> np.ndarray:
    """Ascending real eigenvalues of L in its weighted inner product:
    LAPACK's ``eigvalsh`` of the symmetric form of ``lin``, which must be
    symmetric to ``_SYMMETRY_TOL`` (ValueError otherwise), as it is at any
    positive a*: input validation; ``balance_residual`` detects non-equilibria."""
    S = lin.symmetric()
    asym = np.max(np.abs(S - S.T))
    # math.hypot scales its terms, so |S| near float range cannot overflow
    if asym > _SYMMETRY_TOL * max(1.0, math.hypot(*S.ravel().tolist())):
        raise ValueError(
            f"L is not self-adjoint in the 1/a* inner product: its symmetric "
            f"form is not symmetric (asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(0.5 * (S + S.T))


def analytic_gap_bound_four_species(a_inf, d, c_omega: float) -> float:
    """Constructive lower bound for the four-species gap, |Omega| = 1.

    With pair masses M12 = a1 + a2, M14 = a1 + a4, M32 = a3 + a2,
    M34 = a3 + a4 and C_M = M12*M32*M14*M34 / M^2, the gap is at least
    gamma * min_i d_i where gamma = min(C_Omega, C_M (sum 1/a_i)^2 /
    (sum d_i/a_i)).  Valid for unit reaction rates.  The second term is
    taken as (M12/M)(M32/M)(M14 sum 1/a)(M34 sum 1/a) / sum d/a, factors of
    order one, so it neither underflows nor overflows at any scale of a.
    """
    a = np.asarray(a_inf, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != (4,) or d.shape != (4,):
        raise ValueError("the analytic bound applies to four-species systems only")
    if not np.all((a > 0) & np.isfinite(a)) or np.any(d <= 0):
        raise ValueError("equilibrium values must be positive and finite, "
                         "diffusion positive")
    m12, m14, m32, m34 = a[0] + a[1], a[0] + a[3], a[2] + a[1], a[2] + a[3]
    total, inverse_sum = a.sum(), np.sum(1.0 / a)
    gamma = min(float(c_omega), (m12 / total) * (m32 / total) * (m14 * inverse_sum)
                * (m34 * inverse_sum) / np.sum(d / a))
    return gamma * float(np.min(d))


def _analytic_bound_applies(net: ReactionNetwork, domain: Box | Grid) -> bool:
    return (is_four_species(net)
            and math.isclose(domain.measure, 1.0, rel_tol=1e-12)
            and math.isclose(net.reactions[0].kf, 1.0, rel_tol=1e-12)
            and math.isclose(net.reactions[0].kb, 1.0, rel_tol=1e-12))


def operator_spectral_gap(net: ReactionNetwork, a_inf,
                          domain: Box | Grid) -> SpectralGapReport:
    """Spectral gap of h -> diag(d) Lap h + L h over Neumann modes of a box,
    or over the finite set of a grid's (the semi-discrete gap).

    Mode 0 acts on Im W^T (the conservation constraint): L's lowest rank W
    eigenvalues, by the exact ``net.structure.rank``.  Mode k >= 1 acts
    on the full space as S - mu_k D in weighted symmetric form, D = diag(d) > 0
    (``ReactionNetwork`` refuses other d).  As S - mu' D <= S - mu D -
    (mu' - mu) min_i d_i I for mu' > mu, the mode gap rises strictly with
    mu_k: only mode 1 can undercut mode 0, and only when mu_1 min_i d_i, a
    lower bound of its gap, lies below the mode-0 gap.

    L and the mode-0 gap do not depend on the domain: the last pair computed
    is kept on ``net.kinetics``, keyed by the bytes of a*, so a second
    domain at the same a* pays only for its mode-1 block.
    """
    a = np.asarray(a_inf, dtype=float)
    key = a.tobytes()
    kinetics = net.kinetics
    last = kinetics.last_gap
    if last is not None and a.shape == (net.n_species,) and last[0] == key:
        _, lin, mode_0 = last
    else:
        lin = linearised_matrix(net, a_inf)
        rank = net.structure.rank
        if rank == 0:
            raise ValueError("network has no reactive directions")
        mode_0 = float(-weighted_spectrum(lin)[rank - 1])
        kinetics.last_gap = (key, lin, mode_0)
    d = net.diffusion_array()
    per_mode = [(0.0, mode_0)]

    # every mode k != 0 has some k_j >= 1, and each axis spectrum rises with k
    poincare = float(min(domain.axis_eigenvalue(j, 1) for j in range(domain.ndim)))
    if poincare * float(np.min(d)) < per_mode[0][1]:
        lin_1 = LinearisedMatrix(matrix=-poincare * np.diag(d) + lin.matrix,
                                 weights=lin.weights)
        per_mode.append((poincare, float(-weighted_spectrum(lin_1)[-1])))

    # every block gap of an equilibrium is positive: one that is not is roundoff
    for k, (_, gap) in enumerate(per_mode):
        if not gap > 0:
            raise EquilibriumError(f"mode {k} gap {gap:.3e} is lost to roundoff at the "
                                   f"scale of L (largest entry {abs(lin.matrix).max():.3e})")

    bound = None
    if _analytic_bound_applies(net, domain):
        bound = analytic_gap_bound_four_species(a, d, poincare)
    return SpectralGapReport(lambda_star=min(gap for _, gap in per_mode),
                             per_mode=tuple(per_mode), analytic_bound=bound)
