"""Linearised reaction operator at an equilibrium and the spectral gap of
diffusion + reaction on Neumann domains.

Writing a = a* + h and dropping quadratic terms, the reaction part acts as
the I x I matrix

    L[i, j] = - sum_r kf_r a*^alpha^r (alpha_i - beta_i)(alpha_j - beta_j) / a*_j,

which is symmetric in the inner product <u, v> = sum_i u_i v_i / a*_i and
negative semidefinite, vanishing exactly on Ker(W)^perp complements.  On a
box with no-flux boundaries the full operator h -> diag(d) Lap h + L h
block-diagonalizes over Neumann cosine modes: mode k contributes the
matrix -mu_k diag(d) + L, with the k = 0 block restricted to Im W^T by the
conservation laws.  The spectral gap is the smallest distance from these
block spectra to zero; only mode 0 and mode 1 can set it, where mu_1, the
Poincare constant of a box or of a grid (the semi-discrete gap of a run),
is the smallest first axis eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Grid
from .network import ReactionNetwork, is_four_species, stoichiometric_matrix
from .equilibrium import _relative_db_residual


_EQUILIBRIUM_TOL = 1e-10  # flux residual relative to the one-sided fluxes
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

    Raises NotEquilibriumError when some reaction flux at ``a_inf`` exceeds
    ``_EQUILIBRIUM_TOL`` relative to its one-sided fluxes.
    """
    a = np.asarray(a_inf, dtype=float)
    if a.shape != (net.n_species,) or not np.all((a > 0) & np.isfinite(a)):
        raise ValueError(
            "a_inf must be a strictly positive, finite vector, one per species")
    forward, backward = net.kinetics.fluxes(a)
    _, relative = _relative_db_residual(forward, backward)
    if relative > _EQUILIBRIUM_TOL:
        raise NotEquilibriumError(
            f"state is not an equilibrium (relative flux residual {relative:.3e})")
    wt = net.kinetics.wt  # W^T, I x R
    L = -wt @ (forward[:, np.newaxis] * wt.T / a[np.newaxis, :])
    return LinearisedMatrix(matrix=L, weights=1.0 / a)


def weighted_spectrum(lin: LinearisedMatrix,
                      subspace: np.ndarray | None = None) -> np.ndarray:
    """Ascending real eigenvalues of L in its weighted inner product.

    Works on the symmetric form of ``lin``, optionally projected onto
    ``subspace`` (columns spanning a subspace in state coordinates,
    orthonormalized in the weighted inner product by an SVD that drops
    dependent columns), and returns LAPACK's ``eigvalsh`` of the result.
    """
    S = lin.symmetric()
    asym = np.max(np.abs(S - S.T))
    if asym > _SYMMETRY_TOL * max(1.0, np.linalg.norm(S)):
        raise ValueError(
            f"operator is not symmetric in the weighted inner product "
            f"(asymmetry {asym:.3e}); the base state is not a valid equilibrium")
    S = 0.5 * (S + S.T)
    if subspace is not None:
        columns = np.sqrt(lin.weights)[:, np.newaxis] * np.asarray(subspace, float)
        u, s, _ = np.linalg.svd(columns, full_matrices=False)
        basis = u[:, s > 1e-12 * np.max(s, initial=1.0)]
        S = basis.T @ S @ basis
    return np.linalg.eigvalsh(S)


def analytic_gap_bound_four_species(a_inf, d, c_omega: float) -> float:
    """Constructive lower bound for the four-species gap, |Omega| = 1.

    With pair masses M12 = a1 + a2, M14 = a1 + a4, M32 = a3 + a2,
    M34 = a3 + a4 and C_M = M12*M32*M14*M34 / M^2, the gap is at least
    gamma * min_i d_i where gamma = min(C_Omega, C_M (sum 1/a_i)^2 /
    (sum d_i/a_i)).  Valid for unit reaction rates.
    """
    a = np.asarray(a_inf, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != (4,) or d.shape != (4,):
        raise ValueError("the analytic bound applies to four-species systems only")
    if not np.all((a > 0) & np.isfinite(a)) or np.any(d <= 0):
        raise ValueError("equilibrium values must be positive and finite, "
                         "diffusion positive")
    m12, m14, m32, m34 = a[0] + a[1], a[0] + a[3], a[2] + a[1], a[2] + a[3]
    total = a.sum()
    c_m = m12 * m32 * m14 * m34 / total ** 2
    gamma = min(float(c_omega), c_m * np.sum(1.0 / a) ** 2 / np.sum(d / a))
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

    Mode 0 acts on Im W^T (the conservation constraint), mode k >= 1 on the
    full space as S - mu_k D in weighted symmetric form, D = diag(d) > 0.
    As S - mu' D <= S - mu D - (mu' - mu) min_i d_i I for mu' > mu, the mode
    gap rises strictly with mu_k: only mode 1 can undercut mode 0, and only
    when mu_1 min_i d_i, a lower bound of its gap, lies below the mode-0 gap.
    """
    lin = linearised_matrix(net, a_inf)
    a = np.asarray(a_inf, dtype=float)
    d = net.diffusion_array()
    if np.any(d <= 0):
        raise ValueError("diffusion coefficients must be strictly positive")

    mode0 = weighted_spectrum(lin, subspace=stoichiometric_matrix(net).T)
    if mode0.size == 0:
        raise ValueError("network has no reactive directions")
    per_mode = [(0.0, float(-mode0[-1]))]

    # every mode k != 0 has some k_j >= 1, and each axis spectrum rises with k
    poincare = float(min(domain.axis_eigenvalue(j, 1) for j in range(domain.ndim)))
    if poincare * float(np.min(d)) < per_mode[0][1]:
        lin_1 = LinearisedMatrix(matrix=-poincare * np.diag(d) + lin.matrix,
                                 weights=lin.weights)
        per_mode.append((poincare, float(-weighted_spectrum(lin_1)[-1])))

    bound = None
    if _analytic_bound_applies(net, domain):
        bound = analytic_gap_bound_four_species(a, d, poincare)
    return SpectralGapReport(lambda_star=min(gap for _, gap in per_mode),
                             per_mode=tuple(per_mode), analytic_bound=bound)
