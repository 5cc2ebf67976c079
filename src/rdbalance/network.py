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
conditions.  W, its rank and Q are exact integer algebra, built once per
network (``ReactionNetwork.structure``): one fraction-free elimination of
W gives the rank and the kernel, and Q's semi-positive rows are extreme
rays of {x >= 0 : W x = 0}, from one double-description pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np


def _positive_finite(value, what: str) -> float:
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be strictly positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class Reaction:
    """One reversible reaction: alpha -> beta at rate kf, beta -> alpha at kb,
    both rates positive and finite (ValueError otherwise), so log(kf/kb) exists."""

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
        object.__setattr__(self, "kf", _positive_finite(self.kf, "rate kf"))
        object.__setattr__(self, "kb", _positive_finite(self.kb, "rate kb"))

    @property
    def order_forward(self) -> int:
        return sum(self.alpha)

    @property
    def order_backward(self) -> int:
        return sum(self.beta)


@dataclass(frozen=True)
class ReactionNetwork:
    """Distinctly named species, reactions over them, and one positive, finite
    diffusion coefficient per species; ValueError otherwise."""

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    diffusion: tuple[float, ...]

    def __post_init__(self):
        species = tuple(str(s) for s in self.species)
        reactions = tuple(self.reactions)
        if len(species) < 2:
            raise ValueError("need at least two species")
        for k, name in enumerate(species):
            if name in species[:k]:
                raise ValueError(f"species name {name!r} is repeated")
        if not reactions:
            raise ValueError("need at least one reaction")
        if len(self.diffusion) != len(species):
            raise ValueError("one diffusion coefficient per species required")
        diffusion = tuple(_positive_finite(d, f"diffusion {name}")
                          for name, d in zip(species, self.diffusion))
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

    @functools.cached_property
    def structure(self) -> "StoichiometryDecomposition":
        """Exact integer structure (W, rank, Q), built once (not a field)."""
        return StoichiometryDecomposition(self)


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
            mic = row[c]
            if i != r and (mic or p != prev):  # else the update leaves the row as it is
                m[i] = [(p * x - mic * y) // prev for x, y in zip(row, pr)]
        prev = p
        pivots.append(c)
    return m[:len(pivots)], pivots


def _primitive(vec: list[int]) -> list[int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = math.gcd(*vec)
    if next(x for x in vec if x != 0) < 0:
        g = -g
    return [x // g for x in vec]


def _elimination_kernel(W: np.ndarray) -> list[list[int]]:
    """Primitive integer kernel vectors of W, one per free column; deterministic.

    With pivot determinant D, the vector of free column f has x[f] = D and
    x[p_i] = -row_i[f] on each pivot column p_i: D times the rational
    vector with a unit entry in column f.
    """
    reduced, pivots = _gauss_jordan(W.tolist(), ncols := W.shape[1])
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
    extreme rays, and a ray is fixed by its support.  Supports are int
    bitmasks: a pair's ray, a positive combination of two nonnegative rays,
    has the union of their supports, so it is formed only when that union
    is minimal.  The ray count can grow exponentially with the species
    count, so a cut that would form more than ``_RAY_LIMIT`` candidates
    raises ValueError instead.
    """
    rays = {1 << c: [0] * c + [1] + [0] * (ncols - c - 1) for c in range(ncols)}
    for k, w in enumerate(rows):
        dot, cut, pos, neg = {}, {}, [], []
        for s, r in rays.items():
            dot[s] = x = sum(map(operator.mul, w, r))
            if x > 0:
                pos.append(s)
            elif x < 0:
                neg.append(s)
            else:
                cut[s] = r
        n = len(cut) + len(pos) * len(neg)
        if n > _RAY_LIMIT:
            raise ValueError(f"too many extreme rays to list the semi-positive conservation "
                             f"laws: row {k + 1} of W forms {n}, more than {_RAY_LIMIT}")
        if not (pos and neg):  # no pair: the rays on the hyperplane stay minimal
            rays = cut
            continue
        pairs = {p | q: (p, q) for p in pos for q in neg}
        old, rays = rays, {}
        # by support size, so s is kept unless a support already kept is in it
        for s in sorted(cut.keys() | pairs.keys(), key=int.bit_count):
            if any(map(operator.eq, map(s.__and__, rays), rays)):  # t & s == t
                continue
            if s in cut:
                rays[s] = cut[s]
            else:
                p, q = pairs[s]
                rays[s] = _primitive([dot[p] * b - dot[q] * a
                                      for a, b in zip(old[p], old[q])])
    return [rays[s] for s in sorted(
        rays, key=lambda s: (s.bit_count(), [c for c in range(ncols) if s >> c & 1]))]


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
    if W.ndim != 2 or W.shape[1] < 1 or not np.issubdtype(W.dtype, np.integer):
        raise ValueError("W must be an integer matrix")
    return _basis(W, _elimination_kernel(W))


def _basis(W: np.ndarray, kernel: list[list[int]]) -> np.ndarray:
    """``conservation_basis`` of W, given W's elimination kernel."""
    q = len(kernel)
    if q == 0:
        return np.zeros((0, W.shape[1]), dtype=np.int64)
    # the leftmost pivot columns of the candidates, stacked as columns, are
    # the candidates that raise the rank of those before them
    candidates = _extreme_rays(W.tolist(), W.shape[1]) + kernel
    _, picked = _gauss_jordan([list(c) for c in zip(*candidates)], len(candidates))
    if len(picked) != q:
        raise RuntimeError(f"kernel completion found {len(picked)} of {q} rows")
    return np.array([candidates[j] for j in picked], dtype=np.int64)


class StoichiometryDecomposition:
    """Exact integer structure of one network, kept by
    ``ReactionNetwork.structure``: W (R x I, rows beta - alpha), its rank, and
    Q, whose rows are a basis of Ker W (``conservation_basis``), with labels.
    One elimination of W gives the rank and the kernel; Q and its labels are
    built on first read, so the rank never waits on the extreme-ray pass,
    which refuses a network with too many rays."""

    def __init__(self, net: ReactionNetwork):
        self.W = stoichiometric_matrix(net)
        self.W.flags.writeable = False  # shared by every caller, as Q is
        self._kernel = _elimination_kernel(self.W)
        self.rank = self.W.shape[1] - len(self._kernel)  # the pivot count
        self._reactant = net.alpha_matrix().any(axis=0)
        self._product = net.beta_matrix().any(axis=0)

    @functools.cached_property
    def Q(self) -> np.ndarray:
        Q = _basis(self.W, self._kernel)
        Q.flags.writeable = False
        return Q

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._pair_label(row) or f"m{k + 1}" for k, row in enumerate(self.Q))

    def _pair_label(self, row: np.ndarray) -> str | None:
        """Name a two-species unit row M<i><j>, reactant species first."""
        support = np.flatnonzero(row)
        if len(support) != 2 or any(row[support] != 1):
            return None
        i, j = int(support[0]), int(support[1])
        if self._reactant[j] and self._product[i] \
                and not (self._reactant[i] and self._product[j]):
            i, j = j, i
        return f"M{i + 1}{j + 1}"

    @property
    def n_conserved(self) -> int:
        return self.Q.shape[0]


def decompose(net: ReactionNetwork) -> StoichiometryDecomposition:
    """``net.structure`` with Q and its labels built: ValueError when the
    extreme rays are too many to list."""
    net.structure.labels  # reads Q, so the ray pass runs (or refuses) here
    return net.structure


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
    it through ``ReactionNetwork.kinetics``, which keeps one per network;
    ``operator_spectral_gap`` keeps its last factor B and mode-0 gap on it.
    """

    def __init__(self, net: ReactionNetwork):
        reactions = net.reactions
        sides = [r.alpha for r in reactions] + [r.beta for r in reactions]
        factors = [[i for i, c in enumerate(side) for _ in range(c)] for side in sides]
        rows = list(itertools.zip_longest(*factors, fillvalue=net.n_species))
        self.gather = np.array(rows or [[net.n_species] * len(sides)])
        self._rows = tuple(self.gather)  # split once, not on every call
        self._padded = any(len(f) < len(self.gather) for f in factors)
        self.rates = np.array([[r.kf] for r in reactions] + [[r.kb] for r in reactions])
        self.wt = net.structure.W.T.astype(float)  # W^T
        self.log_kf = np.log(net.kf_array())
        self.log_ratio = self.log_kf - np.log(net.kb_array())  # log(kf/kb)
        self.alpha = net.alpha_matrix().astype(float)  # R x I
        self.last_gap = None  # (a*.tobytes(), B at a*, mode-0 gap)

    @functools.cached_property
    def signed(self) -> np.ndarray:
        """I x 2R signed rate matrix of ``production``, built on first use."""
        return np.hstack([self.wt, -self.wt]) * self.rates.T

    def monomials(self, flat: np.ndarray) -> np.ndarray:
        """(2R, N) monomials of the (I, N) array ``flat``: a^alpha for each
        reaction, then a^beta."""
        if self._padded:
            flat = np.concatenate([flat, np.ones((1, flat.shape[1]))])
        first, *rest = self._rows
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
        """Species production P = W^T K = S m over (I, *cells) fields, m the
        monomials and S = ``signed`` = [W^T diag(kf) | -W^T diag(kb)]; the
        stepper takes S m from ``monomials`` and its own multiples of S."""
        mono = self.monomials(fields.reshape(fields.shape[0], -1))
        return np.dot(self.signed, mono).reshape(fields.shape)


def production_term(net: ReactionNetwork, a) -> tuple[np.ndarray, np.ndarray]:
    """Reaction fluxes K(a) and species production P(a) = W^T K(a), by
    ``Kinetics.production``, the S m that the stepper steps.

    ``a`` is a nonnegative concentration vector of length I; raises
    ValueError on any negative component (a solver blow-up signal).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (net.n_species,):
        raise ValueError(f"expected concentration vector of length {net.n_species}")
    if np.any(a < 0):
        bad = int(np.argmin(a))
        raise ValueError(f"negative concentration {net.species[bad]} = {a[bad]}")
    return np.subtract(*net.kinetics.fluxes(a)), net.kinetics.production(a)


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
    """Check the hypotheses that construction leaves open; never raises.

    Violations cover more-than-quadratic reactions and alpha = beta no-ops
    (rates, diffusion and names are refused when the network is built).
    Empty reaction sides are legal but noted, since they change which
    quantities are conserved.
    """
    violations: list[str] = []
    notes: list[str] = []
    for idx, r in enumerate(net.reactions):
        where = f"reaction {idx + 1}"
        if r.order_forward > 2:
            violations.append(f"{where}: non-quadratic: |alpha| = {r.order_forward}")
        if r.order_backward > 2:
            violations.append(f"{where}: non-quadratic: |beta| = {r.order_backward}")
        if r.alpha == r.beta:
            violations.append(f"{where}: alpha = beta (no-op reaction)")
        if r.order_forward == 0 or r.order_backward == 0:
            notes.append(f"{where}: empty reaction side (pure production/degradation)")
    return ValidationReport(tuple(violations), tuple(notes))
