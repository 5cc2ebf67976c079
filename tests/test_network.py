import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdbalance import (
    Reaction,
    ReactionNetwork,
    conservation_basis,
    decompose,
    is_four_species,
    production_term,
    stoichiometric_matrix,
    validate_network,
)
from rdbalance.network import _extreme_rays

from conftest import exchange_network, four_species_network, random_admissible_network

# pairwise-mass conservation laws of the four-species swap
PAIR_MASS_Q = np.array([[1, 1, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]])


def same_row_space(A, B) -> bool:
    """Mutual rational solvability: each row of one solves in the other."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    for M, rows in ((A, B), (B, A)):
        for row in rows:
            x, residual, *_ = np.linalg.lstsq(M.T, row, rcond=None)
            if np.linalg.norm(M.T @ x - row) > 1e-9 * max(1.0, np.linalg.norm(row)):
                return False
    return True


class TestStoichiometricMatrix:
    def test_four_species(self):
        W = stoichiometric_matrix(four_species_network())
        assert W.tolist() == [[-1, 1, -1, 1]]

    def test_exchange(self):
        W = stoichiometric_matrix(exchange_network())
        assert W.tolist() == [[-1, 1]]

    def test_dimerization(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((2, 0), (0, 1), 1.0, 1.0),),
                              (1.0, 1.0))
        assert stoichiometric_matrix(net).tolist() == [[-2, 1]]


class TestConservationBasis:
    def test_four_species_matches_pair_masses(self):
        Q = conservation_basis(np.array([[-1, 1, -1, 1]]))
        assert Q.shape == (3, 4)
        assert (Q @ np.array([[-1, 1, -1, 1]]).T == 0).all()
        assert np.linalg.matrix_rank(Q) == 3
        assert same_row_space(Q, PAIR_MASS_Q)
        # semi-positive minimal-support search lands exactly on the pair rows
        assert Q.tolist() == PAIR_MASS_Q.tolist()

    def test_exchange_total_mass(self):
        assert conservation_basis(np.array([[-1, 1]])).tolist() == [[1, 1]]

    def test_duplicate_reaction_rank_one(self):
        Q = conservation_basis(np.array([[-1, 1], [1, -1]]))
        assert Q.tolist() == [[1, 1]]

    def test_trivial_kernel(self):
        Q = conservation_basis(np.array([[1, 0], [0, 1]]))
        assert Q.shape == (0, 2)

    def test_no_reactions_conserve_every_species(self):
        Q = conservation_basis(np.zeros((0, 3), dtype=np.int64))
        assert Q.dtype == np.int64
        assert Q.tolist() == np.eye(3, dtype=np.int64).tolist()

    def test_rows_primitive(self, rng):
        for _ in range(50):
            W = rng.integers(-2, 3, size=(rng.integers(1, 7), rng.integers(2, 9)))
            Q = conservation_basis(W)
            assert Q.shape[0] == W.shape[1] - np.linalg.matrix_rank(W)
            assert (Q.astype(object) @ W.astype(object).T == 0).all()
            if Q.shape[0]:
                assert np.linalg.matrix_rank(Q) == Q.shape[0]
                for row in Q:
                    assert np.gcd.reduce(np.abs(row)) == 1
                    assert row[np.flatnonzero(row)[0]] > 0
                semipositive = [bool((row >= 0).all()) for row in Q]
                assert semipositive == sorted(semipositive, reverse=True)

    @pytest.mark.parametrize("alpha, beta, expected", [
        ((0, 0), (1, 1), [[1, -1]]),  # no semi-positive law: elimination fallback
        ((2, 0), (0, 1), [[1, 2]]),
    ], ids=["empty_side", "dimer"])
    def test_exact_basis_of_one_reaction(self, alpha, beta, expected):
        net = ReactionNetwork(("A1", "A2"), (Reaction(alpha, beta, 2.0, 1.0),),
                              (1.0, 1.0))
        assert decompose(net).Q.tolist() == expected

    def test_exact_basis_mixes_semipositive_and_fallback_rows(self):
        # a random admissible network: A4 <-> A2 + A5, A4 + A5 <-> 0, 0 <-> A3 + A5
        W = np.array([[0, 1, 0, -1, 1], [0, 0, 0, -1, -1], [0, 0, 1, 0, 1]])
        assert conservation_basis(W).tolist() == [[1, 0, 0, 0, 0], [0, 2, 1, 1, -1]]

    def test_semipositive_rows_lead_where_a_support_search_ran_out(self):
        # 13 species: an enumeration capped at 4096 supports found no
        # semi-positive law here and returned a mixed-sign row first
        W = np.array([[0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, -1, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0],
                      [1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, -1],
                      [0, -1, 0, 1, 0, 0, 0, 0, 0, -1, 1, 0, 0],
                      [-1, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1],
                      [-1, 0, 1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0],
                      [1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -1, 1],
                      [0, 1, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1]])
        assert conservation_basis(W).tolist() == [
            [2, 2, 2, 1, 1, 1, 3, 0, 0, 0, 1, 1, 0],
            [1, 2, 3, 0, 2, 0, 2, 2, 0, 0, 2, 2, 1],
            [1, 0, -1, 1, -1, 1, 1, -1, -1, 1, 0, 0, 0]]

    @staticmethod
    def layered(reactions):
        # X_l + Y_l <-> X_{l+1} + Y_{l+1}: x_Xl + x_Yl is the same at every
        # layer, so each choice of X or Y per layer is an extreme ray
        W = np.zeros((reactions, 2 * reactions + 2), dtype=np.int64)
        for l in range(reactions):
            W[l, 2 * l:2 * l + 2] = -1
            W[l, 2 * l + 2:2 * l + 4] = 1
        return W

    def test_exponentially_many_extreme_rays(self):
        W = self.layered(3)
        assert len(_extreme_rays(W.tolist(), 8)) == 16
        assert conservation_basis(W).tolist() == [
            [1, 0, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0, 0, 1],
            [1, 0, 1, 0, 0, 1, 1, 0], [1, 0, 0, 1, 1, 0, 1, 0],
            [0, 1, 1, 0, 1, 0, 1, 0]]
        assert len(_extreme_rays(self.layered(9).tolist(), 20)) == 1024

    def test_too_many_extreme_rays_raise(self):
        # 32 species would have 65536 extreme rays; the pass stops at the
        # first cut that forms more than 1024 candidates (1024 pairs and
        # the 12 unit vectors of layers not yet reached) and says so
        with pytest.raises(ValueError, match="row 9 of W forms 1036, more than 1024"):
            conservation_basis(self.layered(15))

    def test_labels(self):
        stoich = decompose(four_species_network())
        assert stoich.labels == ("M12", "M14", "M32")


def rational_kernel(rows, ncols):
    """Basis of {x : rows x = 0} over the rationals, by textbook reduction
    to reduced row echelon form with unit pivots."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            factor = m[i][c]
            if i != r and factor != 0:
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [Fraction(0)] * ncols
            x[f] = Fraction(1)
            for row, p in zip(m, pivots):
                x[p] = -row[f]
            basis.append(x)
    return basis


def semipositive_circuits(W):
    """Every support whose restricted kernel is a single positive vector,
    as primitive integer vectors in (support size, support) order."""
    ncols = W.shape[1]
    found = []
    for size in range(1, ncols + 1):
        for support in itertools.combinations(range(ncols), size):
            kernel = rational_kernel(W[:, list(support)].tolist(), size)
            if len(kernel) != 1 or not (all(x > 0 for x in kernel[0])
                                        or all(x < 0 for x in kernel[0])):
                continue
            scaled = [abs(x) * math.lcm(*(y.denominator for y in kernel[0]))
                      for x in kernel[0]]
            g = math.gcd(*(int(x) for x in scaled))
            vector = [0] * ncols
            for c, x in zip(support, scaled):
                vector[c] = int(x) // g
            found.append(vector)
    return found


@st.composite
def small_integer_matrices(draw):
    """A random integer matrix with at most 8 columns, or the stoichiometric
    matrix of a random admissible network."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return stoichiometric_matrix(random_admissible_network(rng))
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         max_size=6))
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(W=small_integer_matrices())
def test_semipositive_rows_are_the_independent_positive_circuits(W):
    # the positive circuits are the extreme rays of {x >= 0 : W x = 0}; Q
    # takes each one, in order, when it raises the rank
    ncols = W.shape[1]
    circuits = semipositive_circuits(W)
    assert _extreme_rays(W.tolist(), ncols) == circuits
    expected = []
    for v in circuits:
        if ncols - len(rational_kernel(expected + [v], ncols)) > len(expected):
            expected.append(v)
    Q = conservation_basis(W).tolist()
    assert Q[:len(expected)] == expected
    assert [row for row in Q if all(x >= 0 for x in row)] == expected


class TestProductionTerm:
    def test_equilibrium_point(self):
        K, P = production_term(four_species_network(), [1, 1, 1, 1])
        assert K.tolist() == [0.0]
        assert P.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_pure_forward(self):
        K, P = production_term(four_species_network(), [2, 0, 2, 0])
        assert K.tolist() == [4.0]
        assert P.tolist() == [-4.0, 4.0, -4.0, 4.0]

    def test_exchange(self):
        K, P = production_term(exchange_network(kf=2.0, kb=1.0), [3, 1])
        assert K.tolist() == [5.0]
        assert P.tolist() == [-5.0, 5.0]

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="negative concentration"):
            production_term(four_species_network(), [1, -0.5, 1, 1])

    def test_conservation_identity(self, rng):
        for _ in range(40):
            net = random_admissible_network(rng)
            stoich = decompose(net)
            if stoich.n_conserved == 0:
                continue
            a = rng.uniform(0, 3, size=net.n_species)
            _, P = production_term(net, a)
            bound = 1e-12 * max(np.linalg.norm(P), 1.0)
            assert np.max(np.abs(stoich.Q @ P)) <= bound

    def test_homogeneity_of_orders(self, rng):
        for _ in range(20):
            net = random_admissible_network(rng, max_reactions=3)
            a = rng.uniform(0.2, 2.0, size=net.n_species)
            s = float(rng.uniform(0.5, 4.0))
            alpha = net.alpha_matrix()
            beta = net.beta_matrix()
            forward = net.kf_array() * np.prod(a[None, :] ** alpha, axis=1)
            backward = net.kb_array() * np.prod(a[None, :] ** beta, axis=1)
            expected = forward * s ** alpha.sum(axis=1) \
                - backward * s ** beta.sum(axis=1)
            K, _ = production_term(net, s * a)
            assert np.allclose(K, expected, rtol=1e-12)


class TestValidation:
    def test_four_species_ok(self):
        report = validate_network(four_species_network())
        assert report.ok
        assert str(report) == "ok"

    def test_cubic_reaction(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((3, 0), (0, 1), 1.0, 1.0),),
                              (1.0, 1.0))
        report = validate_network(net)
        assert not report.ok
        assert any("non-quadratic: |alpha| = 3" in v for v in report.violations)

    def test_zero_rate(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((1, 0), (0, 1), 1.0, 0.0),),
                              (1.0, 1.0))
        report = validate_network(net)
        assert any("rate must be strictly positive" in v for v in report.violations)

    def test_noop_reaction(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((1, 0), (1, 0), 1.0, 1.0),),
                              (1.0, 1.0))
        assert any("alpha = beta" in v for v in validate_network(net).violations)

    def test_duplicate_species(self):
        net = ReactionNetwork(("A1", "A1"),
                              (Reaction((1, 0), (0, 1), 1.0, 1.0),),
                              (1.0, 1.0))
        assert any("duplicate name" in v for v in validate_network(net).violations)

    def test_nonpositive_diffusion(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((1, 0), (0, 1), 1.0, 1.0),),
                              (1.0, -1.0))
        assert any("diffusion" in v for v in validate_network(net).violations)

    def test_empty_side_noted_not_violating(self):
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((1, 1), (0, 0), 1.0, 1.0),),
                              (1.0, 1.0))
        report = validate_network(net)
        assert report.ok
        assert any("empty reaction side" in n for n in report.notes)


class TestTypes:
    def test_reaction_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Reaction((1, 0), (0, 1, 0), 1.0, 1.0)

    def test_reaction_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            Reaction((-1, 0), (0, 1), 1.0, 1.0)

    def test_network_needs_reactions(self):
        with pytest.raises(ValueError):
            ReactionNetwork(("A1", "A2"), (), (1.0, 1.0))

    def test_is_four_species(self):
        assert is_four_species(four_species_network())
        assert not is_four_species(exchange_network())

    def test_kinetics_is_built_once_outside_the_fields(self):
        net, twin = four_species_network(), four_species_network()
        assert net.kinetics is net.kinetics
        assert net == twin and hash(net) == hash(twin)
        assert "kinetics" in vars(net) and "kinetics" not in vars(twin)
