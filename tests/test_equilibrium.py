import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rdbalance import (
    EquilibriumError,
    Grid,
    Interval,
    Reaction,
    ReactionNetwork,
    NewtonDivergenceError,
    NoDetailedBalanceError,
    State,
    conserved_masses,
    decompose,
    detailed_balance_equilibrium,
    four_species_equilibrium,
    operator_spectral_gap,
    production_term,
    relative_entropy,
    stoichiometric_matrix,
)
from rdbalance.equilibrium import DB_TOL, balance_residual
from rdbalance.solver import reference_equilibrium

from conftest import exchange_network, four_species_network, \
    random_admissible_network, random_balanced_network, triangle_network


def pair_source_network(kf=2.0, kb=1.0) -> ReactionNetwork:
    return ReactionNetwork(species=("A1", "A2"),
                           reactions=(Reaction((0, 0), (1, 1), kf, kb),),
                           diffusion=(1.0, 1.0))


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

    def test_equilibrium_data_round_trip(self):
        stoich = decompose(four_species_network())
        eq = four_species_equilibrium(3, 4, 1, 2)
        masses = conserved_masses(stoich, eq.vector)
        assert np.allclose(masses.vector, (3, 4, 1), rtol=1e-12)

    def test_masses_are_per_unit_measure(self):
        # the same cells on intervals of length 1 and 2: the same masses, a*
        net = four_species_network()
        fields = np.array([[2.0] * 8, [0.5] * 8, [2.0] * 8, np.linspace(0.5, 1.5, 8)])
        results = [reference_equilibrium(net, State(0.0, fields, Grid(Interval(length), (8,))))
                   for length in (1.0, 2.0)]
        assert results[0].masses.values == results[1].masses.values == (2.5, 3.0, 2.5)
        assert results[0].a_inf == results[1].a_inf
        assert np.allclose(results[0].vector, four_species_equilibrium(2.5, 3, 2.5, 3).vector,
                           rtol=1e-12)

    def test_malformed_mean_rejected(self):
        with pytest.raises(ValueError, match="mean initial data has the wrong length"):
            conserved_masses(decompose(four_species_network()), [1, 1, 1])

    @pytest.mark.parametrize("mean, masses", [([1, -0.5, 1, 1], (0.5, 2.0, 0.5)),
                                              ([1, -1.5, 1, 1], (-0.5, 2.0, -0.5))])
    def test_negative_mean_left_to_the_mass_rule(self, mean, masses):
        # conserved_masses checks the length alone; the masses go to the one
        # mass rule of detailed_balance_equilibrium, which refuses M12 <= 0
        net = four_species_network()
        stoich = decompose(net)
        got = conserved_masses(stoich, mean)
        assert got.values == masses
        if masses[0] > 0:
            assert np.allclose(stoich.Q @ detailed_balance_equilibrium(net, stoich, got).vector,
                               masses, rtol=1e-12)
        else:
            with pytest.raises(ValueError, match="conserved mass M12 = -0.5 must be"):
                detailed_balance_equilibrium(net, stoich, got)

    def test_zero_mass_rejected(self):
        net = four_species_network()
        stoich = decompose(net)
        masses = conserved_masses(stoich, [1, 0, 0, 0])
        with pytest.raises(ValueError, match="M32"):
            detailed_balance_equilibrium(net, stoich, masses)


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

    @pytest.mark.parametrize("kb", [1.0000000015, 1.0000000025])
    def test_cycle_just_off_balance_is_refused(self, kb):
        # a* = (1, 1, 1) matches the mass exactly, and its flux residual
        # (kb - 1) / 3 exceeds the one bound that gap also applies
        net = ReactionNetwork(("A1", "A2", "A3"),
                              (Reaction((1, 0, 0), (0, 1, 0), 1.0, 1.0),
                               Reaction((0, 1, 0), (0, 0, 1), 1.0, 1.0),
                               Reaction((0, 0, 1), (1, 0, 0), 1.0, kb)),
                              (1.0, 1.0, 1.0))
        with pytest.raises(NoDetailedBalanceError, match=r"\Ano detailed-balance "
                           r"equilibrium: relative flux residual [58]\.\d{3}e-10\Z"):
            detailed_balance_equilibrium(net, decompose(net), [3.0])

    @pytest.mark.parametrize("kf, kb", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_rate_ratio_beyond_float_range_is_refused(self, kf, kb):
        # kf/kb overflows to inf or underflows to 0, so log(kf/kb) does not
        # exist in floats: refused before the Wegscheider solve
        net = four_species_network(kf=kf, kb=kb)
        message = f"reaction 1: rate ratio kf/kb = {kf:g}/{kb:g} is outside float range"
        with pytest.raises(EquilibriumError, match=re.escape(message)) as info:
            detailed_balance_equilibrium(net, decompose(net), [1.0, 2.0, 3.0])
        assert type(info.value) is EquilibriumError

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

    @pytest.mark.parametrize("kb, mass", [(1e10, 1e-165), (1.0, 1e-160)])
    def test_tiny_mass_of_a_mixed_sign_law_is_matched(self, kb, mass):
        # 0 <-> A1 + A2 conserves m = a1 - a2, far below a1 ~ a2 ~ 1e-155
        # (or 1e-150), whose squares underflow; each a_i = exp(log a_i) is
        # known only to the ulps of log a_i ~ -356, which bound the match
        net = ReactionNetwork(("A1", "A2"), (Reaction((0, 0), (1, 1), 1e-300, kb),),
                              (1.0, 1.0))
        stoich = decompose(net)
        a = detailed_balance_equilibrium(net, stoich, [mass]).vector
        terms = np.abs(stoich.Q) @ (a * np.maximum(1.0, np.abs(np.log(a))))
        floor = 64 * np.finfo(float).eps * math.hypot(*terms)
        assert abs(a[0] - a[1] - mass) <= floor

    @pytest.mark.parametrize("masses", [[1e-30, 0.0], [1e-30, 1e3], [1e-250, -5.0]])
    def test_each_law_is_matched_to_its_own_scale(self, masses):
        # A2 + A3 <-> 0 conserves a1 and a2 - a3; the terms a2 + a3 >= 2 of
        # the second law must not set the tolerance of the first
        net = ReactionNetwork(("A1", "A2", "A3"),
                              (Reaction((0, 1, 1), (0, 0, 0), 1.0, 1.0),),
                              (1.0, 1.0, 1.0))
        stoich = decompose(net)
        assert stoich.Q.tolist() == [[1, 0, 0], [0, 1, -1]]
        a = detailed_balance_equilibrium(net, stoich, masses).vector
        assert abs(a[0] - masses[0]) <= 1e-12 * masses[0]

    @pytest.mark.parametrize("kf, kb, mass", [
        (2.0, 1.0, 1e-300), (2.0, 1.0, 1e-90), (2.0, 1.0, 1e16), (2.0, 1.0, 1e30),
        (2.0, 1.0, 1e300), (1e154, 1e-154, 3.0)])
    def test_masses_across_float_range_are_reached(self, kf, kb, mass):
        # a* = (m / (1 + r), m / (1 + 1/r)), r = kf / kb, lies up to ~690
        # e-folds from the start exp(mu): the raw Newton step below a*
        # overflows exp, and above a* Newton gains about one e-fold per step
        net = exchange_network(kf, kb)
        a = detailed_balance_equilibrium(net, decompose(net), [mass]).vector
        ratio = kf / kb
        want = (mass / (1.0 + ratio), mass / (1.0 + 1.0 / ratio))
        assert a == pytest.approx(want, rel=1e-12, abs=0)  # 1e-300 is not 0

    @pytest.mark.parametrize("mass", [-50.0, -1.0, 0.0])
    def test_mixed_sign_law_takes_any_mass(self, mass):
        # 0 <-> A1 + A2 conserves m = a1 - a2, <= 0 wherever a2 >= a1; with
        # a1 a2 = kf / kb = 2 the equilibrium has a2 = (sqrt(m^2 + 8) - m) / 2
        net = pair_source_network()
        stoich = decompose(net)
        assert stoich.Q.tolist() == [[1, -1]]
        a = detailed_balance_equilibrium(net, stoich, [mass]).vector
        a2 = (np.sqrt(mass * mass + 8.0) - mass) / 2
        assert a[1] == pytest.approx(a2, rel=1e-12)
        assert a[0] == pytest.approx(2.0 / a2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("mass", [-np.inf, np.inf, np.nan])
    def test_mixed_sign_law_mass_must_be_finite(self, mass):
        net = pair_source_network()
        with pytest.raises(ValueError, match=f"m1 = {mass:g} must be strictly positive"):
            detailed_balance_equilibrium(net, decompose(net), [mass])

    @pytest.mark.parametrize("m", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], []])
    def test_mass_count_is_refused_with_the_law_names(self, m):
        net = four_species_network()
        with pytest.raises(ValueError, match=r"\Aexpected 3 masses \(M12, M14, M32\)\Z"):
            detailed_balance_equilibrium(net, decompose(net), m)

    def test_masses_past_float_range_do_not_converge(self):
        # A3 / A1 = 1e616: Newton matches the mass at a* = (3e-616, 3e-308, 3),
        # whose A1 underflows to 0, and that state is refused
        rate = Reaction((1, 0, 0), (0, 1, 0), 1e154, 1e-154)
        net = ReactionNetwork(("A1", "A2", "A3"),
                              (rate, Reaction((0, 1, 0), (0, 0, 1), 1e154, 1e-154)),
                              (1.0, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonDivergenceError, match=re.escape(
                    "a* in [0, 3] is not strictly positive and finite")):
                detailed_balance_equilibrium(net, decompose(net), [3.0])

    def test_equilibrium_that_underflows_is_refused(self):
        # 0 <-> A1 and A1 <-> A2 fix a* = (1e-300, 1e-600): A2 underflows to 0
        net = ReactionNetwork(("A1", "A2"),
                              (Reaction((0, 0), (1, 0), 1.0, 1e300),
                               Reaction((1, 0), (0, 1), 1.0, 1e300)),
                              (1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonDivergenceError, match=r"a\* in \[0, 1e-300\]"):
                detailed_balance_equilibrium(net, decompose(net), [])

    def test_infeasible_masses_diverge(self):
        # M34 = M14 + M32 - M12 < 0: no positive state has these masses
        net = four_species_network()
        with pytest.raises(NewtonDivergenceError):
            detailed_balance_equilibrium(net, decompose(net), [5, 1, 1])

    def test_infeasible_masses_stop_without_creeping(self):
        # M34 = -0.47: Newton drives a3, a4 toward 0, where the capped step
        # no longer lowers phi; backtracking must not accept a step that
        # lowers it by nothing, which would stall for every iteration
        net = four_species_network()
        with pytest.raises(NewtonDivergenceError, match="line search failed"):
            detailed_balance_equilibrium(net, decompose(net),
                                         [4.68185488, 4.09768242, 0.11341865])

    def test_equilibrium_whose_fluxes_overflow_is_refused(self):
        # 2 A1 <-> 2 A2 at mass 1e200: a* = (5e199, 5e199) is a float, its
        # fluxes a_i^2 are not, so balance cannot be decided
        net = ReactionNetwork(("A1", "A2"), (Reaction((2, 0), (0, 2), 1.0, 1.0),),
                              (1.0, 1.0))
        message = "reaction fluxes at a* overflow float range"
        with pytest.raises(EquilibriumError, match=re.escape(message)) as info:
            detailed_balance_equilibrium(net, decompose(net), [1e200])
        assert type(info.value) is EquilibriumError

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


MIXED_SIGN_SEED = 1  # its state gives a mixed-sign law a mass <= 0 (1 draw in 10 does)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=MIXED_SIGN_SEED)
def test_masses_of_a_positive_state_are_realized(seed):
    rng = np.random.default_rng(seed)
    net, _ = random_balanced_network(rng)
    stoich = decompose(net)
    masses = conserved_masses(stoich, rng.uniform(0.3, 3.0, size=net.n_species))
    if seed == MIXED_SIGN_SEED:  # the example still draws the case it is for
        Q = stoich.Q
        mixed = (Q > 0).any(axis=1) & (Q < 0).any(axis=1)
        assert np.any(mixed & (masses.vector <= 0))
    a = detailed_balance_equilibrium(net, stoich, masses).vector
    forward = net.kf_array() * np.prod(a ** net.alpha_matrix(), axis=1)
    backward = net.kb_array() * np.prod(a ** net.beta_matrix(), axis=1)
    assert np.all(np.abs(forward - backward) <= 1e-10 * np.maximum(forward, backward))
    m = masses.vector
    floor = 1e-12 * np.linalg.norm(np.abs(stoich.Q) @ a)
    assert np.linalg.norm(stoich.Q @ a - m) <= max(1e-10 * np.linalg.norm(m), floor)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shuffle=st.integers(0, 2 ** 32 - 1))
@example(seed=MIXED_SIGN_SEED, shuffle=0)
def test_relabelling_species_permutes_the_equilibrium(seed, shuffle):
    rng = np.random.default_rng(seed)
    net, _ = random_balanced_network(rng)
    state = rng.uniform(0.3, 3.0, size=net.n_species)
    perm = np.random.default_rng(shuffle).permutation(net.n_species)
    relabelled = ReactionNetwork(
        species=tuple(net.species[i] for i in perm),
        reactions=tuple(Reaction(tuple(r.alpha[i] for i in perm),
                                 tuple(r.beta[i] for i in perm), r.kf, r.kb)
                        for r in net.reactions),
        diffusion=tuple(net.diffusion[i] for i in perm))
    results = []
    for network, a in ((net, state), (relabelled, state[perm])):
        stoich = decompose(network)
        eq = detailed_balance_equilibrium(network, stoich, conserved_masses(stoich, a))
        results.append((eq.vector, operator_spectral_gap(network, eq.vector,
                                                         Interval(1.3)).lambda_star))
    (a_star, gap), (a_perm, gap_perm) = results
    assert np.allclose(a_perm, a_star[perm], rtol=1e-10, atol=0)
    assert gap_perm == pytest.approx(gap, rel=1e-10, abs=0)


class TestBalanceResidual:
    def test_db_residual_is_the_balance_residual(self):
        net = four_species_network()
        eq = detailed_balance_equilibrium(net, decompose(net), [3, 4, 1])
        assert eq.db_residual == balance_residual(net, eq.vector) <= DB_TOL
        closed = four_species_equilibrium(3, 4, 1, 2)
        assert closed.db_residual == balance_residual(net, closed.vector) <= DB_TOL

    @pytest.mark.parametrize("a2, residual", [(1e-155, 0.0), (1.000001e-155, 1e-6 / 1.000001),
                                              (2e-155, 0.5)])
    def test_fluxes_near_the_bottom_of_float_range(self, a2, residual):
        # 0 <-> A1 + A2 at kf = 1e-305: both one-sided fluxes about 1e-305,
        # and |K| / max(kf, kb a1 a2) = 1 - 1e-155 / a2, to the ulps of
        # log(kf) ~ -702 (about 1e-13)
        net = pair_source_network(kf=1e-305, kb=1.0)
        assert balance_residual(net, np.array([1e-150, a2])) == \
            pytest.approx(residual, rel=1e-9, abs=1e-12)


TINY_FLUX_SEED = 44  # at 1e-150 the raised species' reaction has fluxes about 1e-300


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-150, 150))
@example(seed=TINY_FLUX_SEED, exponent=-150.0)
def test_balance_residual_is_exact_at_any_state_scale(seed, exponent):
    # a network balanced at s u, s = 10^exponent, its kb backed out as
    # random_balanced_network does; then one reacting species is raised by
    # 1e-6, which puts reaction r off balance by a factor (1 + 1e-6)^|W_ri|
    rng = np.random.default_rng(seed)
    net = random_admissible_network(rng)
    a = 10.0 ** exponent * rng.uniform(0.3, 3.0, size=net.n_species)
    with np.errstate(all="ignore"):
        kb = [r.kf * np.prod(a ** np.array(r.alpha)) / np.prod(a ** np.array(r.beta))
              for r in net.reactions]
    assume(all(np.finfo(float).tiny <= k < math.inf for k in kb))
    net = ReactionNetwork(net.species, tuple(Reaction(r.alpha, r.beta, r.kf, float(k))
                                             for r, k in zip(net.reactions, kb)),
                          net.diffusion)
    assert balance_residual(net, a) <= DB_TOL
    W = stoichiometric_matrix(net)
    i = int(rng.choice(np.flatnonzero(W.any(axis=0))))
    a[i] *= 1 + 1e-6
    want = 1 - (1 + 1e-6) ** -float(np.max(np.abs(W[:, i])))
    assert balance_residual(net, a) == pytest.approx(want, rel=1e-6, abs=0)
