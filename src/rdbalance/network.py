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
conditions.  Q is built in exact integer arithmetic: its semi-positive
rows are extreme rays of the cone {x >= 0 : W x = 0}, found by one
double-description pass, and fraction-free Gauss-Jordan elimination gives
the rank and completes the kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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
    labels: tuple[str, ...]

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.int64)
        Q = np.asarray(self.Q, dtype=np.int64)
        if W.ndim != 2 or Q.ndim != 2 or Q.shape[1] != W.shape[1]:
            raise ValueError("W and Q must be matrices over the same species axis")
        # Exact integer checks: Q W^T = 0 and rank(Q) = I - rank(W).
        prod = Q.astype(object) @ W.astype(object).T
        if any(x != 0 for x in prod.flat):
            raise ValueError("Q W^T != 0: Q rows are not conservation laws")
        rank_w = _rank(W.tolist(), W.shape[1])
        rank_q = _rank(Q.tolist(), Q.shape[1])
        if rank_q != Q.shape[0] or rank_q != W.shape[1] - rank_w:
            raise ValueError("Q rows must be a basis of Ker W")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Q", Q)
        if len(self.labels) != Q.shape[0]:
            raise ValueError("one label per conservation law required")

    @property
    def n_conserved(self) -> int:
        return self.Q.shape[0]


def stoichiometric_matrix(net: ReactionNetwork) -> np.ndarray:
    """R x I integer matrix with row r = beta^r - alpha^r."""
    return net.beta_matrix() - net.alpha_matrix()


# ---------------------------------------------------------------------------
# Exact integer linear algebra for the conservation basis.


def _gauss_jordan(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination with leftmost pivots.

    Returns the nonzero reduced rows and their pivot columns.  Each step
    is Bareiss's exact update ``(p * row - row[c] * pivot_row) // prev``,
    applied to every row but the pivot row, so at the end each pivot entry
    equals one determinant D, the rest of its column is 0, and every entry
    is D times the reduced row echelon form's (an integer, by Cramer's rule).
    """
    m = list(rows)  # rows are replaced, never changed in place
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pr = m[r]
        p = pr[c]
        for i, row in enumerate(m):
            if i != r:
                mic = row[c]
                m[i] = [(p * x - mic * y) // prev for x, y in zip(row, pr)]
        prev = p
        pivots.append(c)
    return m[:len(pivots)], pivots


def _rank(rows: list[list[int]], ncols: int) -> int:
    return len(_gauss_jordan(rows, ncols)[1])


def _primitive(vec: list[int]) -> list[int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = math.gcd(*vec)
    if next(x for x in vec if x != 0) < 0:
        g = -g
    return [x // g for x in vec]


def _elimination_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer kernel vectors, one per free column; deterministic.

    With pivot determinant D, the vector of free column f has x[f] = D and
    x[p_i] = -row_i[f] on each pivot column p_i: D times the rational
    vector with a unit entry in column f.
    """
    reduced, pivots = _gauss_jordan(rows, ncols)
    d = reduced[0][pivots[0]] if pivots else 1
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = d
        for row, p in zip(reduced, pivots):
            x[p] = -row[f]
        out.append(_primitive(x))
    return out


_RAY_LIMIT = 1024  # candidate rays per cut; the minimal-support filter is quadratic


def _extreme_rays(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Extreme rays of the cone {x >= 0 : W x = 0}, by (support size, support).

    One double-description pass (Fukuda and Prodon 1996): start from the
    unit vectors, the rays of the orthant, and cut by one hyperplane w.x = 0
    per row w of W.  Rays on the hyperplane stay, and each pair with
    w.p > 0 > w.q adds the primitive ray (w.p) q - (w.q) p on it.  Pairs
    are not tested for adjacency; instead only the rays of minimal support
    are kept, since in a cone inside the orthant those are exactly the
    extreme rays, and a ray is fixed by its support.  The ray count can grow
    exponentially with the species count, so a cut that would form more
    than ``_RAY_LIMIT`` candidates raises ValueError instead.
    """
    rays = {frozenset([c]): [int(c == j) for j in range(ncols)] for c in range(ncols)}
    for k, w in enumerate(rows):
        dot = {s: sum(a * x for a, x in zip(w, r)) for s, r in rays.items()}
        cut = {s: r for s, r in rays.items() if dot[s] == 0}
        pos = [s for s in rays if dot[s] > 0]
        neg = [s for s in rays if dot[s] < 0]
        n = len(cut) + len(pos) * len(neg)
        if n > _RAY_LIMIT:
            raise ValueError(f"too many extreme rays to list the semi-positive conservation "
                             f"laws: row {k + 1} of W forms {n}, more than {_RAY_LIMIT}")
        for p in pos:
            for q in neg:
                x = _primitive([dot[p] * b - dot[q] * a
                                for a, b in zip(rays[p], rays[q])])
                cut[frozenset(c for c, v in enumerate(x) if v)] = x
        rays = {s: r for s, r in cut.items() if not any(t < s for t in cut)}
    return [rays[s] for s in sorted(rays, key=lambda s: (len(s), sorted(s)))]


def conservation_basis(W) -> np.ndarray:
    """Integer basis of Ker W, one conservation law per row.

    Deterministic: semi-positive minimal-support vectors first (these are
    the physically meaningful masses), i.e. the extreme rays of
    {x >= 0 : W x = 0} in (support size, support) order, each taken when
    it raises the rank; then fraction-free elimination kernel vectors
    complete the basis.  Every row is primitive (coordinate gcd 1,
    first nonzero entry positive) and Q W^T = 0 holds exactly in integer
    arithmetic.  Returns a (0, I) matrix when Ker W is trivial, and the
    I x I identity when W has no rows.  Raises ValueError when the extreme
    rays are too many to list (see ``_extreme_rays``), never truncating.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[1] < 1:
        raise ValueError("W must be a matrix")
    if not np.issubdtype(W.dtype, np.integer):
        Wi = np.rint(W).astype(np.int64)
        if not np.array_equal(Wi, W):
            raise ValueError("W must be an integer matrix")
        W = Wi
    rows = W.tolist()
    ncols = W.shape[1]
    kernel = _elimination_kernel(rows, ncols)
    q = len(kernel)
    if q == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    # the leftmost pivot columns of the candidates, stacked as columns, are
    # the candidates that raise the rank of those before them
    candidates = _extreme_rays(rows, ncols) + kernel
    _, picked = _gauss_jordan([list(c) for c in zip(*candidates)], len(candidates))
    if len(picked) != q:
        raise RuntimeError(f"kernel completion found {len(picked)} of {q} rows")
    return np.array([candidates[j] for j in picked], dtype=np.int64)


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
    labels = tuple(_pair_label(row, net) or f"m{k + 1}" for k, row in enumerate(Q))
    return StoichiometryDecomposition(W=W, Q=Q, labels=labels)


# ---------------------------------------------------------------------------
# Mass-action kinetics.


class Kinetics:
    """Mass-action fluxes of one network, the only place monomials are built.

    ``gather`` is an (F, 2R) table: column r lists the factors of reaction
    r's forward side, column R + r those of its backward side, as species
    rows repeated by coefficient (``2 A1 + A3`` gives 0, 0, 2).  F is the
    most factors of any side (2 for an admissible network); a shorter side
    is padded with row I, a row of ones appended to the fields only when
    some side is padded, so an empty side is the monomial 1.  A monomial is
    the product of its rows in factor order, with no powers taken.  Build
    it through ``ReactionNetwork.kinetics``, which keeps one per network.
    """

    def __init__(self, net: ReactionNetwork):
        reactions = net.reactions
        sides = [r.alpha for r in reactions] + [r.beta for r in reactions]
        factors = [[i for i, c in enumerate(side) for _ in range(c)] for side in sides]
        rows = list(itertools.zip_longest(*factors, fillvalue=net.n_species))
        self.gather = np.array(rows or [[net.n_species] * len(sides)])
        self._padded = any(len(f) < len(self.gather) for f in factors)
        self.rates = np.array([[r.kf] for r in reactions] + [[r.kb] for r in reactions])
        self.wt = (net.beta_matrix() - net.alpha_matrix()).T.astype(float)  # W^T

    @functools.cached_property
    def signed(self) -> np.ndarray:
        """S = [W^T diag(kf) | -W^T diag(kb)], I x 2R, built on first use
        (only the stepper's ``production`` needs it)."""
        return np.hstack([self.wt, -self.wt]) * self.rates.T

    def monomials(self, flat: np.ndarray) -> np.ndarray:
        """(2R, N) monomials of the (I, N) array ``flat``: a^alpha for each
        reaction, then a^beta."""
        if self._padded:
            flat = np.concatenate([flat, np.ones((1, flat.shape[1]))])
        first, *rest = self.gather
        mono = flat.take(first, axis=0)
        for species in rest:
            mono *= flat.take(species, axis=0)
        return mono

    def fluxes(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-sided fluxes (kf a^alpha, kb a^beta), each (R,) for an (I,)
        vector ``a`` or (R, *cells) for (I, *cells) fields."""
        mono = self.monomials(a.reshape(a.shape[0], -1))
        mono *= self.rates
        shape = (len(mono) // 2,) + a.shape[1:]
        return mono[:shape[0]].reshape(shape), mono[shape[0]:].reshape(shape)

    def production(self, fields: np.ndarray) -> np.ndarray:
        """Species production W^T K = S m over (I, *cells) fields, m the
        monomials and S = ``signed`` (the stepper's hot path: one reshape, the
        gathers, one BLAS product).  BLAS may fuse a multiply and an add, so
        this differs from W^T K at roundoff in general.  With rates and
        coefficients that are powers of two and no species in two reactions
        (the four-species swap with unit rates), every product is exact and
        both round one subtraction only, so the two agree bitwise."""
        mono = self.monomials(fields.reshape(fields.shape[0], -1))
        # np.dot: less per-call overhead than np.matmul on small grids
        return np.dot(self.signed, mono).reshape(fields.shape)


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
