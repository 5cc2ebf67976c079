import warnings

import numpy as np
import pytest

from rdbalance import (
    Grid,
    Interval,
    Reaction,
    ReactionNetwork,
    NewtonDivergenceError,
    NoDetailedBalanceError,
    conserved_masses,
    decompose,
    detailed_balance_equilibrium,
    four_species_equilibrium,
    production_term,
    relative_entropy,
    stoichiometric_matrix,
)

from conftest import exchange_network, four_species_network, \
    random_balanced_network, triangle_network


def sample_consistent_masses(rng):
    """Pair masses in [0.1, 10] with M12 + M34 = M14 + M32 enforced."""
    while True:
        m12, m14, m32 = rng.uniform(0.1, 10.0, size=3)
        m34 = m14 + m32 - m12
        if 0.1 <= m34 <= 10.0:
            return float(m12), float(m14), float(m32), float(m34)


class TestConservedMasses:
    def test_pure_forward_data(self):
        stoich = decompose(four_species_network())
        masses = conserved_masses(stoich, [2, 0, 2, 0])
        assert masses.values == (2.0, 2.0, 2.0)
        assert masses.labels == ("M12", "M14", "M32")

    def test_equilibrium_data_round_trip(self):
        stoich = decompose(four_species_network())
        eq = four_species_equilibrium(3, 4, 1, 2)
        masses = conserved_masses(stoich, eq.vector)
        assert np.allclose(masses.vector, (3, 4, 1), rtol=1e-12)

    def test_volume_scaling(self):
        stoich = decompose(four_species_network())
        masses = conserved_masses(stoich, [2, 0, 2, 0], volume=0.5)
        assert masses.values == (1.0, 1.0, 1.0)

    def test_zero_mass_rejected(self):
        stoich = decompose(four_species_network())
        with pytest.raises(ValueError, match="M32"):
            conserved_masses(stoich, [1, 0, 0, 0])


class TestFourSpeciesClosedForm:
    def test_reference_values(self):
        eq = four_species_equilibrium(3, 4, 1, 2)
        assert np.allclose(eq.a_inf, (2.4, 0.6, 0.4, 1.6), rtol=1e-14)
        a = eq.vector
        assert abs(a[0] * a[2] - a[1] * a[3]) <= 1e-12 * a[0] * a[2]

    def test_symmetric_case(self):
        assert four_species_equilibrium(2, 2, 2, 2).a_inf == (1.0, 1.0, 1.0, 1.0)

    def test_inconsistent_masses(self):
        with pytest.raises(ValueError, match="inconsistent"):
            four_species_equilibrium(3, 4, 1, 3)

    def test_nonpositive_mass(self):
        with pytest.raises(ValueError, match="strictly positive"):
            four_species_equilibrium(3, 4, 0, 2)

    def test_realizes_its_masses(self, rng):
        for _ in range(25):
            m12, m14, m32, m34 = sample_consistent_masses(rng)
            a = four_species_equilibrium(m12, m14, m32, m34).vector
            assert np.isclose(a[0] + a[1], m12, rtol=1e-12)
            assert np.isclose(a[0] + a[3], m14, rtol=1e-12)
            assert np.isclose(a[2] + a[1], m32, rtol=1e-12)


class TestNewtonSolver:
    def test_matches_closed_form(self):
        net = four_species_network()
        stoich = decompose(net)
        eq = detailed_balance_equilibrium(net, stoich, [3, 4, 1])
        oracle = four_species_equilibrium(3, 4, 1, 2)
        assert np.allclose(eq.vector, oracle.vector, rtol=1e-10)

    def test_oracle_equivalence_random(self, rng):
        net = four_species_network()
        stoich = decompose(net)
        for _ in range(20):
            m12, m14, m32, m34 = sample_consistent_masses(rng)
            eq = detailed_balance_equilibrium(net, stoich, [m12, m14, m32])
            oracle = four_species_equilibrium(m12, m14, m32, m34)
            assert np.max(np.abs(eq.vector / oracle.vector - 1.0)) <= 1e-10

    def test_exchange_network(self):
        net = exchange_network(kf=2.0, kb=1.0)
        eq = detailed_balance_equilibrium(net, decompose(net), [3.0])
        assert np.allclose(eq.vector, (1.0, 2.0), rtol=1e-12)

    def test_no_conservation_law(self):
        # 0 <-> A1, 0 <-> A2: q = 0, the equilibrium is (kf/kb) per species
        net = ReactionNetwork(
            species=("A1", "A2"),
            reactions=(Reaction((0, 0), (1, 0), 2.0, 1.0),
                       Reaction((0, 0), (0, 1), 1.0, 4.0)),
            diffusion=(1.0, 1.0),
        )
        stoich = decompose(net)
        assert stoich.n_conserved == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masses = conserved_masses(stoich, [1.0, 1.0])
            eq = detailed_balance_equilibrium(net, stoich, masses)
        assert np.allclose(eq.vector, (2.0, 0.25), rtol=1e-12)

    def test_triangle_has_no_detailed_balance(self):
        net = triangle_network()
        with pytest.raises(NoDetailedBalanceError):
            detailed_balance_equilibrium(net, decompose(net), [3.0])

    def test_unbalanced_rates_still_work(self):
        net = four_species_network(kf=3.0, kb=0.5)
        stoich = decompose(net)
        eq = detailed_balance_equilibrium(net, stoich, [3, 4, 1])
        a = eq.vector
        assert abs(3.0 * a[0] * a[2] - 0.5 * a[1] * a[3]) <= 1e-10
        assert np.allclose(stoich.Q @ a, (3, 4, 1), rtol=1e-12)

    def test_invariants_on_random_balanced_networks(self, rng):
        for _ in range(15):
            net, a_star = random_balanced_network(rng)
            stoich = decompose(net)
            if stoich.n_conserved == 0:
                continue
            m = stoich.Q.astype(float) @ a_star
            if np.any(m <= 0):
                continue
            eq = detailed_balance_equilibrium(net, stoich, m)
            K, _ = production_term(net, eq.vector)
            forward = net.kf_array() * np.prod(
                eq.vector[None, :] ** net.alpha_matrix(), axis=1)
            assert np.max(np.abs(K)) <= 1e-10 * np.max(forward)
            assert np.max(np.abs(stoich.Q @ eq.vector - m)) <= 1e-10 * np.max(m)

    def test_masses_must_be_positive(self):
        net = four_species_network()
        with pytest.raises(ValueError, match="strictly positive"):
            detailed_balance_equilibrium(net, decompose(net), [3, -1, 1])

    @pytest.mark.parametrize("m, name", [([np.inf, 1, 1], "M12 = inf"),
                                         ([1, np.nan, 1], "M14 = nan")])
    def test_masses_must_be_finite(self, m, name):
        net = four_species_network()
        with pytest.raises(ValueError, match=f"{name} must be strictly positive and finite"):
            detailed_balance_equilibrium(net, decompose(net), m)

    @pytest.mark.parametrize("mass", [1.0770175e-4, 1e-6])
    def test_small_mass_of_a_mixed_sign_law(self, mass):
        # Q = [[1, 0, -1, 0]]: m = a1 - a3 is far below the terms a1, a3 ~ 3,
        # so |Q a - m| can only reach the roundoff of those terms
        net = ReactionNetwork(
            species=("A1", "A2", "A3", "A4"),
            reactions=(Reaction((0, 0, 0, 2), (0, 0, 0, 0), 1.16347, 0.551831),
                       Reaction((1, 0, 1, 0), (0, 0, 0, 0), 0.995334, 8.68080),
                       Reaction((0, 1, 0, 0), (0, 0, 0, 0), 2.66435, 6.08085)),
            diffusion=(1.0, 1.0, 1.0, 1.0),
        )
        stoich = decompose(net)
        assert stoich.Q.tolist() == [[1, 0, -1, 0]]
        a = detailed_balance_equilibrium(net, stoich, [mass]).vector
        assert abs(a[0] - a[2] - mass) <= 1e-14 * (a[0] + a[2])
        assert 0.995334 * a[0] * a[2] == pytest.approx(8.68080, rel=1e-12)
        assert a[0] > a[2] > 0

    def test_infeasible_masses_diverge(self):
        # M34 = M14 + M32 - M12 < 0: no positive state has these masses
        net = four_species_network()
        with pytest.raises(NewtonDivergenceError):
            detailed_balance_equilibrium(net, decompose(net), [5, 1, 1])

    def test_free_energy_minimality(self, rng):
        net = four_species_network()
        stoich = decompose(net)
        eq = detailed_balance_equilibrium(net, stoich, [3, 4, 1])
        grid = Grid(Interval(1.0), (4,))
        W = stoichiometric_matrix(net).astype(float)
        a_inf = eq.vector
        base = relative_entropy(np.tile(a_inf[:, None], (1, 4)), a_inf, grid)
        assert base == 0.0
        for _ in range(20):
            xi = rng.uniform(-0.2, 0.2, size=W.shape[0])
            p = a_inf + W.T @ xi
            if np.any(p <= 0) or np.allclose(p, a_inf):
                continue
            assert np.allclose(stoich.Q @ p, (3, 4, 1), rtol=1e-12)
            h = relative_entropy(np.tile(p[:, None], (1, 4)), a_inf, grid)
            assert h > 0
