import numpy as np
import pytest

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

    def test_labels(self):
        stoich = decompose(four_species_network())
        assert stoich.labels == ("M12", "M14", "M32")


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
