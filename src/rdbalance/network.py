"""Mass-action reaction networks and their stoichiometric algebra.

A network couples I species to R reversible reactions.  Reaction r has
reactant counts alpha^r, product counts beta^r and positive rates
(kf_r, kb_r); its net flux at concentrations a >= 0 is

    K_r(a) = kf_r * a^alpha^r - kb_r * a^beta^r     (multiindex powers, 0^0 = 1)

and the species production is P(a) = W^T K(a), where W is the R x I
integer matrix with row r equal to beta^r - alpha^r; ``Kinetics`` is the
one evaluator of both.  Rows of the integer matrix Q form a basis of
Ker W, so Q P(a) = 0 identically: the quantities Q . integral(a) are
conserved by the reaction-diffusion dynamics under no-flux boundary
conditions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Reaction:
    """One reversible reaction: alpha -> beta at rate kf, beta -> alpha at kb."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    kf: float
    kb: float

    def __post_init__(self):
        alpha = tuple(int(c) for c in self.alpha)
        beta = tuple(int(c) for c in self.beta)
        if alpha != tuple(self.alpha) or beta != tuple(self.beta):
            raise ValueError("stoichiometric coefficients must be integers")
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have the same length")
        if not alpha:
            raise ValueError("a reaction needs at least one species slot")
        if any(c < 0 for c in alpha) or any(c < 0 for c in beta):
            raise ValueError("stoichiometric coefficients must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kf", float(self.kf))
        object.__setattr__(self, "kb", float(self.kb))

    @property
    def order_forward(self) -> int:
        return sum(self.alpha)

    @property
    def order_backward(self) -> int:
        return sum(self.beta)


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    diffusion: tuple[float, ...]

    def __post_init__(self):
        species = tuple(str(s) for s in self.species)
        reactions = tuple(self.reactions)
        diffusion = tuple(float(d) for d in self.diffusion)
        if len(species) < 2:
            raise ValueError("need at least two species")
        if not reactions:
            raise ValueError("need at least one reaction")
        if len(diffusion) != len(species):
            raise ValueError("one diffusion coefficient per species required")
        for r in reactions:
            if len(r.alpha) != len(species):
                raise ValueError("reaction coefficient length does not match species count")
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "reactions", reactions)
        object.__setattr__(self, "diffusion", diffusion)

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def alpha_matrix(self) -> np.ndarray:
        return np.array([r.alpha for r in self.reactions], dtype=np.int64)

    def beta_matrix(self) -> np.ndarray:
        return np.array([r.beta for r in self.reactions], dtype=np.int64)

    def kf_array(self) -> np.ndarray:
        return np.array([r.kf for r in self.reactions], dtype=float)

    def kb_array(self) -> np.ndarray:
        return np.array([r.kb for r in self.reactions], dtype=float)

    def diffusion_array(self) -> np.ndarray:
        return np.array(self.diffusion, dtype=float)

    @functools.cached_property
    def kinetics(self) -> "Kinetics":
        """Mass-action evaluator, built once (not a field: == and hash ignore it)."""
        return Kinetics(self)


@dataclass(frozen=True)
class StoichiometryDecomposition:
    """Integer pair (W, Q): W rows are beta - alpha, Q rows span Ker W."""

    W: np.ndarray
    Q: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.int64)
        Q = np.asarray(self.Q, dtype=np.int64)
        if W.ndim != 2 or Q.ndim != 2 or Q.shape[1] != W.shape[1]:
            raise ValueError("W and Q must be matrices over the same species axis")
        # Exact integer checks: Q W^T = 0 and rank(Q) = I - rank(W).
        prod = Q.astype(object) @ W.astype(object).T
        if any(x != 0 for x in prod.flat):
            raise ValueError("Q W^T != 0: Q rows are not conservation laws")
        rank_w = _rational_rank([list(map(int, row)) for row in W])
        rank_q = _rational_rank([list(map(int, row)) for row in Q])
        if rank_q != Q.shape[0] or rank_q != W.shape[1] - rank_w:
            raise ValueError("Q rows must be a basis of Ker W")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Q", Q)
        if self.labels is not None and len(self.labels) != Q.shape[0]:
            raise ValueError("one label per conservation law required")

    @property
    def n_conserved(self) -> int:
        return self.Q.shape[0]

    def label(self, k: int) -> str:
        if self.labels is not None:
            return self.labels[k]
        return f"m{k + 1}"


def stoichiometric_matrix(net: ReactionNetwork) -> np.ndarray:
    """R x I integer matrix with row r = beta^r - alpha^r."""
    return net.beta_matrix() - net.alpha_matrix()


# ---------------------------------------------------------------------------
# Exact integer linear algebra for the conservation basis.


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form with leftmost pivots.

    Returns the (integer) echelon rows and their pivot columns.  Exact for
    Python ints; intermediate entries are minors of the input (Bareiss).
    """
    m = [list(map(int, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        for i in range(r + 1, len(m)):
            mic = m[i][c]
            for j in range(ncols):
                m[i][j] = (p * m[i][j] - mic * m[r][j]) // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _rational_rank(rows: list[list[int]]) -> int:
    return len(_bareiss_echelon(rows)[1])


def _primitive(vec: list[int]) -> list[int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x != 0:
            if x < 0:
                vec = [-y for y in vec]
            break
    return vec


def _elimination_kernel(W_rows: list[list[int]]) -> list[list[int]]:
    """Primitive integer kernel vectors, one per free column of W.

    Echelon form by Bareiss elimination, then exact rational back
    substitution with a unit entry in each free column; deterministic.
    """
    if not W_rows:
        return []
    ncols = len(W_rows[0])
    echelon, pivots = _bareiss_echelon(W_rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            p = pivots[r]
            s = sum((Fraction(echelon[r][j]) * x[j] for j in range(p + 1, ncols)),
                    Fraction(0))
            x[p] = -s / echelon[r][p]
        denom_lcm = 1
        for v in x:
            denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
        out.append(_primitive([int(v * denom_lcm) for v in x]))
    return out


def _semipositive_kernel_rows(W_rows: list[list[int]], needed: int,
                              budget: int) -> list[list[int]]:
    """Minimal-support kernel vectors of W with entries all of one sign.

    Supports are visited by ascending size then lexicographic order; a
    support qualifies when the restricted kernel is one-dimensional, has no
    zero entry on the support, and is sign-definite.  Deterministic; gives
    the pairwise-mass basis (a1+a2, a1+a4, a2+a3) for the four-species W.
    """
    if not W_rows or needed == 0:
        return []
    ncols = len(W_rows[0])
    found: list[list[int]] = []
    used = 0
    for size in range(1, ncols + 1):
        for support in itertools.combinations(range(ncols), size):
            used += 1
            if used > budget:
                return found
            sub = [[row[c] for c in support] for row in W_rows]
            kernel = _elimination_kernel(sub)
            if len(kernel) != 1:
                continue
            v = kernel[0]
            if any(x == 0 for x in v):
                continue  # true support is smaller; found via another subset
            if any(x < 0 for x in v) and any(x > 0 for x in v):
                continue
            if v[0] < 0:
                v = [-x for x in v]
            full = [0] * ncols
            for c, x in zip(support, v):
                full[c] = x
            if _rational_rank(found + [full]) > len(found):
                found.append(full)
                if len(found) == needed:
                    return found
    return found


_SUPPORT_BUDGET = 4096  # supports tried before falling back to elimination


def conservation_basis(W) -> np.ndarray:
    """Integer basis of Ker W, one conservation law per row.

    Deterministic: semi-positive minimal-support vectors first (these are
    the physically meaningful masses), completed by fraction-free
    elimination kernel vectors.  Every row is primitive (coordinate gcd 1)
    and Q W^T = 0 holds exactly in integer arithmetic.  Returns a (0, I)
    matrix when Ker W is trivial.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[1] < 1:
        raise ValueError("W must be a matrix")
    if not np.issubdtype(W.dtype, np.integer):
        Wi = np.rint(W).astype(np.int64)
        if not np.array_equal(Wi, W):
            raise ValueError("W must be an integer matrix")
        W = Wi
    rows = [list(map(int, r)) for r in W]
    ncols = W.shape[1]
    q = ncols - _rational_rank(rows)
    if q == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = _semipositive_kernel_rows(rows, q, _SUPPORT_BUDGET)
    if len(basis) < q:
        for v in _elimination_kernel(rows):
            if _rational_rank(basis + [v]) > len(basis):
                basis.append(v)
                if len(basis) == q:
                    break
    assert len(basis) == q, "kernel completion failed"
    return np.array(basis, dtype=np.int64)


def _pair_label(row: np.ndarray, net: ReactionNetwork) -> str | None:
    """Name a two-species unit row M<i><j>, reactant species first."""
    support = np.flatnonzero(row)
    if len(support) != 2 or any(row[support] != 1):
        return None
    i, j = int(support[0]), int(support[1])
    reactants = {k for r in net.reactions for k in np.flatnonzero(r.alpha)}
    products = {k for r in net.reactions for k in np.flatnonzero(r.beta)}
    if j in reactants and i in products and not (i in reactants and j in products):
        i, j = j, i
    return f"M{i + 1}{j + 1}"


def decompose(net: ReactionNetwork) -> StoichiometryDecomposition:
    """Stoichiometric matrix and deterministic conservation basis of a network."""
    W = stoichiometric_matrix(net)
    Q = conservation_basis(W)
    labels = []
    for row in Q:
        labels.append(_pair_label(row, net) or f"m{len(labels) + 1}")
    return StoichiometryDecomposition(W=W, Q=Q, labels=tuple(labels))


# ---------------------------------------------------------------------------
# Mass-action kinetics.


def _factor_slots(side: np.ndarray) -> list:
    """Gather table of one reaction side (R x I stoichiometric matrix).

    A reaction's factors are its species indices repeated by coefficient
    (``2 A1 + A3`` gives [0, 0, 2]).  Slot s pairs the reactions that have
    an s-th factor (None when all do) with that factor's species; a
    reaction without one skips the slot, i.e. multiplies by 1.
    """
    factors = [np.repeat(np.arange(side.shape[1]), row) for row in side]
    slots = []
    for s in range(max(map(len, factors), default=0)):
        rows = [r for r, f in enumerate(factors) if len(f) > s]
        species = np.array([factors[r][s] for r in rows])
        slots.append((None if len(rows) == len(factors) else np.array(rows), species))
    return slots


class Kinetics:
    """Mass-action fluxes of one network, the only place monomials are built.

    Each monomial a^alpha is a product of gathered species rows, one per
    factor (at most two for an admissible network), with no powers taken;
    an empty side is the monomial 1.  Build it through
    ``ReactionNetwork.kinetics``, which keeps one per network.
    """

    def __init__(self, net: ReactionNetwork):
        alpha, beta = net.alpha_matrix(), net.beta_matrix()
        self.kf = net.kf_array()[:, np.newaxis]
        self.kb = net.kb_array()[:, np.newaxis]
        self.wt = (beta - alpha).T.astype(float)  # I x R, i.e. W^T
        self.forward = _factor_slots(alpha)
        self.backward = _factor_slots(beta)

    def monomials(self, flat: np.ndarray, slots) -> np.ndarray:
        """(R, N) monomials of the (I, N) array ``flat`` for one side's slots."""
        # a full first slot starts the product; otherwise it starts from 1
        mono = None if slots and slots[0][0] is None \
            else np.ones((len(self.kf), flat.shape[1]))
        for rows, species in slots:
            if mono is None:
                mono = flat[species]
            elif rows is None:
                mono *= flat[species]
            else:
                mono[rows] *= flat[species]
        return mono

    def fluxes(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-sided fluxes (kf a^alpha, kb a^beta), each (R,) for an (I,)
        vector ``a`` or (R, *cells) for (I, *cells) fields."""
        flat = a.reshape(a.shape[0], -1)
        shape = (len(self.kf),) + a.shape[1:]
        return ((self.kf * self.monomials(flat, self.forward)).reshape(shape),
                (self.kb * self.monomials(flat, self.backward)).reshape(shape))

    def production(self, fields: np.ndarray) -> np.ndarray:
        """Species production W^T K over (I, *cells) fields (the stepper's
        hot path: one reshape, the gathers, one product)."""
        flat = fields.reshape(fields.shape[0], -1)
        flux = self.monomials(flat, self.forward)
        flux *= self.kf
        backward = self.monomials(flat, self.backward)
        backward *= self.kb
        flux -= backward
        # np.dot uses BLAS for R = 1, where the matmul ufunc loops (about 4x slower)
        return np.dot(self.wt, flux).reshape(fields.shape)


def production_term(net: ReactionNetwork, a) -> tuple[np.ndarray, np.ndarray]:
    """Reaction fluxes K(a) and species production P(a) = W^T K(a).

    ``a`` is a nonnegative concentration vector of length I; raises
    ValueError on any negative component (a solver blow-up signal).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (net.n_species,):
        raise ValueError(f"expected concentration vector of length {net.n_species}")
    if np.any(a < 0):
        bad = int(np.argmin(a))
        raise ValueError(f"negative concentration a[{bad}] = {a[bad]}")
    forward, backward = net.kinetics.fluxes(a)
    K = forward - backward
    return K, net.kinetics.wt @ K


def is_four_species(net: ReactionNetwork) -> bool:
    """True for the canonical single-swap net A1 + A3 <-> A2 + A4."""
    return (net.n_species == 4 and net.n_reactions == 1
            and net.reactions[0].alpha == (1, 0, 1, 0)
            and net.reactions[0].beta == (0, 1, 0, 1))


# ---------------------------------------------------------------------------
# Validation.


@dataclass(frozen=True)
class ValidationReport:
    """Admissibility findings; empty violations means the network qualifies."""

    violations: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines) if lines else "ok"


def validate_network(net: ReactionNetwork) -> ValidationReport:
    """Check the admissibility hypotheses; never raises.

    Violations cover non-positive rates or diffusion coefficients,
    more-than-quadratic reactions, alpha = beta no-ops and duplicate
    species names.  Empty reaction sides are legal but noted, since they
    change which quantities are conserved.
    """
    violations: list[str] = []
    notes: list[str] = []
    seen: set[str] = set()
    for name in net.species:
        if name in seen:
            violations.append(f"species: duplicate name {name!r}")
        seen.add(name)
    for name, d in zip(net.species, net.diffusion):
        if not (d > 0) or not math.isfinite(d):
            violations.append(f"diffusion {name}: must be strictly positive, got {d}")
    for idx, r in enumerate(net.reactions):
        where = f"reaction {idx + 1}"
        if not (r.kf > 0) or not math.isfinite(r.kf):
            violations.append(f"{where}: rate must be strictly positive, got kf={r.kf}")
        if not (r.kb > 0) or not math.isfinite(r.kb):
            violations.append(f"{where}: rate must be strictly positive, got kb={r.kb}")
        if r.order_forward > 2:
            violations.append(f"{where}: non-quadratic: |alpha| = {r.order_forward}")
        if r.order_backward > 2:
            violations.append(f"{where}: non-quadratic: |beta| = {r.order_backward}")
        if r.alpha == r.beta:
            violations.append(f"{where}: alpha = beta (no-op reaction)")
        if r.order_forward == 0 or r.order_backward == 0:
            notes.append(f"{where}: empty reaction side (pure production/degradation)")
    return ValidationReport(tuple(violations), tuple(notes))
