import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdbalance import (
    Box,
    EquilibriumError,
    Grid,
    Interval,
    LinearisedMatrix,
    NotEquilibriumError,
    Reaction,
    ReactionNetwork,
    Rectangle,
    analytic_gap_bound_four_species,
    four_species_equilibrium,
    linearised_matrix,
    operator_spectral_gap,
    parse_network,
    serialize_network,
    stoichiometric_matrix,
    weighted_spectrum,
)
from rdbalance import linearised

from conftest import build_laplacian, exchange_network, four_species_network, \
    random_balanced_network

PI2 = math.pi ** 2
TINY_RATES = Path(__file__).parent / "data" / "tiny_rates.rdn"  # 0 <-> A1 + A2, kf = 1e-305


def weighted_dot(u, v, weights):
    return float(np.sum(u * v * weights))


class TestLinearisedMatrix:
    def test_unit_equilibrium_rank_one(self):
        lin = linearised_matrix(four_species_network(), [1, 1, 1, 1])
        w = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(lin.matrix, -np.outer(w, w), atol=1e-14)
        assert np.allclose(sorted(np.linalg.eigvalsh(lin.matrix)),
                           [-4, 0, 0, 0], atol=1e-12)

    def test_reproduces_componentwise_form(self):
        # L_i h = (-1)^i (a3 h1 + a1 h3 - a4 h2 - a2 h4) at detailed balance
        a = four_species_equilibrium(3, 4, 1, 2).vector
        lin = linearised_matrix(four_species_network(), a)
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = rng.normal(size=4)
            bracket = a[2] * h[0] + a[0] * h[2] - a[3] * h[1] - a[1] * h[3]
            expected = np.array([-bracket, bracket, -bracket, bracket])
            assert np.allclose(lin.matrix @ h, expected, rtol=1e-12, atol=1e-12)

    def test_skewed_equilibrium_eigenvalue(self):
        lin = linearised_matrix(four_species_network(), [2.4, 0.6, 0.4, 1.6])
        e = np.array([-1.0, 1.0, -1.0, 1.0])
        assert np.allclose(lin.matrix @ e, -5.0 * e, rtol=1e-12)

    def test_exchange_network_matrix(self):
        lin = linearised_matrix(exchange_network(kf=2.0, kb=1.0), [1.0, 2.0])
        expected = -2.0 * np.outer([1, -1], [1, -1]) @ np.diag([1.0, 0.5])
        assert np.allclose(lin.matrix, expected, atol=1e-14)

    def test_rejects_non_equilibrium(self):
        with pytest.raises(NotEquilibriumError):
            linearised_matrix(four_species_network(), [2, 1, 1, 1])

    @pytest.mark.parametrize("a2, residual", [(1.000001e-155, "1.000e-06"),
                                              (2e-155, "5.000e-01")])
    def test_rejects_a_state_off_balance_whose_fluxes_are_tiny(self, a2, residual):
        # both one-sided fluxes about 1e-305: the residual is still |K| over them
        net = parse_network(TINY_RATES.read_text())
        message = f"state is not an equilibrium (relative flux residual {residual})"
        with pytest.raises(NotEquilibriumError, match=rf"\A{re.escape(message)}\Z"):
            linearised_matrix(net, [1e-150, a2])

    def test_accepts_a_balanced_state_whose_fluxes_are_tiny(self):
        net = parse_network(TINY_RATES.read_text())
        report = operator_spectral_gap(net, [1e-150, 1e-155], Interval(1.0))
        assert f"{report.lambda_star:.9e}" == "1.000010000e-150"

    @pytest.mark.parametrize("a", [[np.inf, 1, 1, 1], [np.nan, 1, 1, 1], [0, 1, 1, 1]])
    def test_rejects_non_positive_or_non_finite_state(self, a):
        with pytest.raises(ValueError, match="strictly positive, finite"):
            linearised_matrix(four_species_network(), a)

    def test_weighted_symmetry_random(self, rng):
        for _ in range(20):
            net, a_star = random_balanced_network(rng)
            lin = linearised_matrix(net, a_star)
            u = rng.normal(size=net.n_species)
            v = rng.normal(size=net.n_species)
            lhs = weighted_dot(lin.matrix @ u, v, lin.weights)
            rhs = weighted_dot(u, lin.matrix @ v, lin.weights)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_quadratic_form_identity_random(self, rng):
        for _ in range(20):
            net, a_star = random_balanced_network(rng)
            lin = linearised_matrix(net, a_star)
            h = rng.normal(size=net.n_species)
            coeff = net.kf_array() * np.prod(
                a_star[None, :] ** net.alpha_matrix(), axis=1)
            E = (net.alpha_matrix() - net.beta_matrix()).astype(float)
            expected = -float(np.sum(coeff * (E @ (h / a_star)) ** 2))
            actual = weighted_dot(lin.matrix @ h, h, lin.weights)
            assert abs(actual - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_conservation_rows_annihilate_matrix(self, rng):
        from rdbalance import decompose

        for _ in range(15):
            net, a_star = random_balanced_network(rng)
            stoich = decompose(net)
            if stoich.n_conserved == 0:
                continue
            lin = linearised_matrix(net, a_star)
            residual = np.max(np.abs(stoich.Q.astype(float) @ lin.matrix))
            assert residual <= 1e-12 * max(1.0, np.abs(lin.matrix).max())

    def test_strictly_negative_on_reactive_subspace(self, rng):
        # exactly q eigenvalues vanish (the conservation laws), the rest are < 0
        from rdbalance import decompose

        for _ in range(20):
            net, a_star = random_balanced_network(rng)
            lin = linearised_matrix(net, a_star)
            rank = net.n_species - decompose(net).n_conserved
            scale = np.linalg.norm(lin.symmetric())
            spectrum = weighted_spectrum(lin)
            assert rank >= 1
            assert np.all(np.abs(spectrum[rank:]) <= 1e-12 * scale)
            assert np.all(spectrum[:rank] < -1e-12 * scale)


def test_gap_needs_a_reactive_direction():
    # a lone no-op reaction has W = 0: every direction is conserved
    net = ReactionNetwork(("A1", "A2"), (Reaction((1, 0), (1, 0), 1.0, 1.0),), (1.0, 1.0))
    assert net.structure.rank == 0
    with pytest.raises(ValueError, match="network has no reactive directions"):
        operator_spectral_gap(net, [1.0, 1.0], Interval(1.0))


class TestWeightedSpectrum:
    def test_full_space(self):
        lin = linearised_matrix(four_species_network(), [1, 1, 1, 1])
        assert np.allclose(weighted_spectrum(lin), [-4, 0, 0, 0], atol=1e-11)

    def test_zero_matrix(self):
        lin = LinearisedMatrix(matrix=np.zeros((3, 3)), weights=np.ones(3))
        assert np.allclose(weighted_spectrum(lin), np.zeros(3))

    def test_non_symmetric_rejected(self):
        lin = LinearisedMatrix(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
                               weights=np.ones(2))
        with pytest.raises(ValueError, match="not symmetric"):
            weighted_spectrum(lin)

    def test_agrees_with_dense_solver(self, rng):
        # L = diag(1/w) A with A symmetric is self-adjoint in the w-weighted
        # inner product; its spectrum comes from a general eigensolver
        for _ in range(10):
            n = int(rng.integers(2, 9))
            M = rng.normal(size=(n, n))
            A = M + M.T
            w = rng.uniform(0.2, 5.0, size=n)
            L = A / w[:, np.newaxis]
            lin = LinearisedMatrix(matrix=L, weights=w)
            want = np.sort(np.linalg.eigvals(L).real)
            assert np.allclose(weighted_spectrum(lin), want,
                               atol=1e-10 * max(1.0, np.abs(want).max()))


def laplacian_spectrum(domain, counts):
    """Every Neumann eigenvalue of ``domain`` with k_j < counts[j]: the outer
    sums of the per-axis spectra, in axis order, sorted."""
    mus = 0.0
    for j, count in enumerate(counts):
        mus = np.add.outer(mus, domain.axis_eigenvalue(j, np.arange(count)))
    return np.sort(np.ravel(mus))


class TestNeumannEigenvalues:
    @pytest.mark.parametrize("extents, shape", [((2.0,), (12,)),
                                                ((1.5, 0.7), (6, 9)),
                                                ((1.0, 0.7, 1.3), (4, 5, 6)),
                                                ((1.0, 1.2, 0.8, 1.1), (4, 4, 4, 5))],
                             ids=["1d", "2d", "3d", "4d"])
    def test_axis_eigenvalues_are_the_stencil_spectrum(self, extents, shape):
        grid = Grid(Box(extents), shape)
        lap = build_laplacian(grid)
        matrix = np.column_stack([lap.apply(e.reshape(shape)).ravel()
                                  for e in np.eye(grid.n_cells)])
        want = np.sort(-np.linalg.eigvalsh(matrix))
        mus = laplacian_spectrum(grid, shape)
        assert mus.size == grid.n_cells
        assert np.max(np.abs(mus - want)) <= 1e-12 * want[-1]


class TestSpectralGap:
    def test_reaction_limited(self):
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1],
                                       Interval(1.0))
        assert abs(report.lambda_star - 4.0) <= 1e-9
        assert report.per_mode[0] == (0.0, pytest.approx(4.0, abs=1e-9))
        assert report.analytic_bound == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-300, 1, 50)])
    def test_uniform_equilibrium_at_every_scale(self, scale):
        # a* = s (1, 1, 1, 1), d = 1: L = -s v v^T with |v|^2 = 4, and below
        # s = 1e-162 the flux kf a*^alpha = s^2 underflows to 0
        report = operator_spectral_gap(four_species_network(), [scale] * 4, Interval(1.0))
        assert report.lambda_star == pytest.approx(4 * scale, rel=1e-12, abs=0)
        assert report.analytic_bound == pytest.approx(4 * scale, rel=1e-12, abs=0)

    def test_fast_diffusion_does_not_change_gap(self):
        net = four_species_network(d=(10, 10, 10, 10))
        report = operator_spectral_gap(net, [1, 1, 1, 1], Interval(1.0))
        assert abs(report.lambda_star - 4.0) <= 1e-9

    def test_diffusion_limited_long_interval(self):
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1],
                                       Interval(10.0))
        assert abs(report.lambda_star - PI2 / 100) <= 1e-9
        assert report.modes_examined == 2

    def test_lambda_star_is_min_of_modes(self):
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1],
                                       Interval(10.0))
        gaps = [gap for _, gap in report.per_mode]
        assert report.lambda_star == min(gaps)
        assert all(gap > 0 for gap in gaps)

    def test_truncation_sound(self, rng):
        # modes beyond the blocks computed can only sit above lambda_star
        net = four_species_network(d=tuple(rng.uniform(0.1, 10, size=4)))
        m12, m14, m32 = rng.uniform(0.5, 5.0, size=3)
        m34 = m14 + m32 - m12
        if m34 <= 0:
            m12, m34 = m34 + m12 - 0.1, 0.1
        a = four_species_equilibrium(m12, m14, m32, m34).vector
        domain = Interval(2.0)
        report = operator_spectral_gap(net, a, domain)
        lin = linearised_matrix(net, a)
        d = np.array(net.diffusion)
        for k in range(report.modes_examined, report.modes_examined + 5):
            mu = domain.axis_eigenvalue(0, k)
            shifted = LinearisedMatrix(matrix=-mu * np.diag(d) + lin.matrix,
                                       weights=lin.weights)
            gap = -weighted_spectrum(shifted)[-1]
            assert gap >= report.lambda_star - 1e-9

    def test_rectangle_domain(self):
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1],
                                       Rectangle(5.0, 4.0))
        # Poincare constant (pi/5)^2 is below the reaction gap 4
        assert abs(report.lambda_star - (math.pi / 5) ** 2) <= 1e-9

    @pytest.mark.parametrize("extents", [(10.0, 4.0, 3.0), (10.0, 2.0, 3.0, 1.0)])
    def test_box_domain(self, extents):
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1],
                                       Box(extents))
        assert report.lambda_star == pytest.approx(PI2 / 100, abs=1e-12)
        assert report.analytic_bound is None  # |Omega| != 1

    def test_grid_gives_semi_discrete_gap(self):
        # diffusion-limited: the gap is the grid's own Poincare constant
        grid = Grid(Interval(10.0), (32,))
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1], grid)
        mu1 = (2.0 / grid.spacing[0] * math.sin(math.pi / 64)) ** 2
        assert report.lambda_star == pytest.approx(mu1, rel=1e-14, abs=0)
        assert report.lambda_star < PI2 / 100

    def test_grid_bound_uses_grid_poincare_constant(self, rng):
        grid = Grid(Box((1.0, 1.0, 1.0)), (6, 6, 6))
        d = tuple(rng.uniform(0.1, 10.0, size=4))
        a = four_species_equilibrium(1.5, 2.0, 1.2, 1.7).vector
        report = operator_spectral_gap(four_species_network(d=d), a, grid)
        poincare = grid.axis_eigenvalue(0, 1)  # a cube: every axis alike
        assert poincare < PI2
        assert report.analytic_bound == analytic_gap_bound_four_species(a, d, poincare)
        assert report.analytic_bound <= report.lambda_star * (1 + 1e-9)


BIG_RATES = Path(__file__).parent / "data" / "big_rates.rdn"  # A1 + A2 <-> 0, kf = 1e250
GAP_DOMAINS = (Interval(1.0), Interval(10.0), Rectangle(5.0, 0.5),
               Grid(Box((1.0, 2.0)), (6, 8)))


def count_calls(monkeypatch, module, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(module, name)):
            counts[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


class TestGapReuse:
    """operator_spectral_gap keeps the last (a*, L, mode-0 gap) on the
    network's Kinetics: a domain after the first reuses them."""

    def test_later_domains_match_a_fresh_network_bit_for_bit(self, rng):
        cases = [(four_species_network(), np.array([1.0, 2.0, 3.0, 1.5]))]
        cases += [random_balanced_network(rng) for _ in range(6)]
        for net, a_star in cases:
            text = serialize_network(net)
            net = parse_network(text)
            for domain in GAP_DOMAINS:
                got = operator_spectral_gap(net, a_star, domain)
                want = operator_spectral_gap(parse_network(text), a_star, domain)
                assert repr(got) == repr(want)  # float repr round-trips every bit

    def test_one_ulp_away_is_computed_again(self, monkeypatch):
        net = four_species_network()
        a_star = np.array([1.0, 2.0, 3.0, 1.5])
        operator_spectral_gap(net, a_star, Interval(1.0))
        counts = count_calls(monkeypatch, linearised, "linearised_matrix")
        near = a_star.copy()
        near[1] = np.nextafter(near[1], np.inf)
        got = operator_spectral_gap(net, near, Interval(1.0))
        assert counts["linearised_matrix"] == 1
        assert net.kinetics.last_gap[0] == near.tobytes()
        assert repr(got) == repr(operator_spectral_gap(four_species_network(), near,
                                                      Interval(1.0)))

    def test_two_domains_linearise_and_take_the_spectrum_once(self, monkeypatch):
        counts = count_calls(monkeypatch, linearised, "linearised_matrix",
                             "weighted_spectrum")
        net = four_species_network()
        # pi^2 min d > 4, the mode-0 gap, on both: no mode-1 block is formed
        for domain in (Interval(1.0), Rectangle(1.0, 0.5)):
            assert operator_spectral_gap(net, [1.0] * 4, domain).modes_examined == 1
        assert counts == {"linearised_matrix": 1, "weighted_spectrum": 1}

    @pytest.mark.parametrize("a, error, message", [
        ([2.0, 1.0, 1.0, 1.0], NotEquilibriumError, "not an equilibrium"),
        ([1e200] * 4, EquilibriumError, "reaction fluxes at a\\* overflow"),
    ], ids=["off-balance", "flux-overflow"])
    def test_a_refused_state_is_never_kept(self, a, error, message):
        net = four_species_network()
        operator_spectral_gap(net, [1.0] * 4, Interval(1.0))
        kept = net.kinetics.last_gap
        for domain in GAP_DOMAINS:
            with pytest.raises(error, match=message):
                operator_spectral_gap(net, a, domain)
            assert net.kinetics.last_gap is kept

    def test_a_mode_1_roundoff_refusal_recurs_on_every_domain(self):
        # L's entries are about 1e270: any mode-1 gap is lost to roundoff
        net = parse_network(BIG_RATES.read_text())
        for domain in (Interval(1.0), Interval(1.0), Interval(2.0), Rectangle(1.0, 3.0)):
            with pytest.raises(EquilibriumError, match=r"mode 1 gap \S+ is lost to "
                                                       r"roundoff"):
                operator_spectral_gap(net, [1e20, 1e20], domain)
        assert net.kinetics.last_gap[0] == np.array([1e20, 1e20]).tobytes()


def projected_mode0_gap(lin, W):
    """Mode-0 gap by projection: the symmetric form of L restricted to an
    orthonormal basis of its range, the weighted image of Im W^T, found by
    an SVD with a relative cutoff of 1e-12 (an oracle independent of rank W)."""
    columns = np.sqrt(lin.weights)[:, np.newaxis] * W.T.astype(float)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    basis = u[:, s > 1e-12 * np.max(s, initial=1.0)]
    S = lin.symmetric()
    return -np.linalg.eigvalsh(basis.T @ (0.5 * (S + S.T)) @ basis)[-1]


@st.composite
def small_grids(draw):
    """A grid of 1 to 4 dimensions with at most 64 cells (256 in 4D, which
    needs 4 cells per axis)."""
    ndim = draw(st.integers(1, 4))
    cap = max(64, 4 ** ndim)
    shape = []
    for j in range(ndim):
        room = cap // (math.prod(shape) * 4 ** (ndim - j - 1))
        shape.append(draw(st.integers(4, room)))
    extents = draw(st.lists(st.floats(0.5, 3.0), min_size=ndim, max_size=ndim))
    return Grid(Box(tuple(extents)), tuple(shape))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(grid=small_grids(), seed=st.integers(0, 2 ** 32 - 1),
       slow=st.integers(0, 7), exponent=st.floats(-4.0, -1.0))
def test_gap_is_the_smallest_gap_over_every_mode_block(grid, seed, slow, exponent):
    # one slow species makes mu_k min d_i small for many modes; the gap must
    # still be the minimum over all n_cells blocks, mode 0 on Im W^T
    net, a_star = random_balanced_network(np.random.default_rng(seed))
    d = list(net.diffusion)
    d[slow % net.n_species] *= 10.0 ** exponent
    net = ReactionNetwork(net.species, net.reactions, tuple(d))
    report = operator_spectral_gap(net, a_star, grid)

    lin = linearised_matrix(net, a_star)
    gaps = [projected_mode0_gap(lin, stoichiometric_matrix(net))]
    for mu in laplacian_spectrum(grid, grid.shape)[1:]:
        block = LinearisedMatrix(matrix=-mu * np.diag(d) + lin.matrix,
                                 weights=lin.weights)
        gaps.append(-weighted_spectrum(block)[-1])
    assert len(gaps) == grid.n_cells
    assert report.lambda_star == pytest.approx(min(gaps), rel=1e-12, abs=0)
    assert report.modes_examined == len(report.per_mode) <= 2
    if report.modes_examined == 2:
        poincare = min(grid.axis_eigenvalue(j, 1) for j in range(grid.ndim))
        assert report.per_mode[1][0] == poincare


class TestAnalyticBound:
    def test_tight_at_unit_equilibrium(self):
        bound = analytic_gap_bound_four_species([1, 1, 1, 1], [1, 1, 1, 1], PI2)
        assert abs(bound - 4.0) <= 1e-12

    def test_fast_diffusion_case(self):
        bound = analytic_gap_bound_four_species([1, 1, 1, 1], [4, 4, 4, 4], PI2)
        assert abs(bound - 4.0) <= 1e-12

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-150, 151, 25)])
    def test_uniform_equilibrium_at_every_scale(self, scale):
        # a* = s (1, 1, 1, 1), d = 1: C_M (sum 1/a)^2 / sum(d/a) = 4 s
        bound = analytic_gap_bound_four_species([scale] * 4, [1, 1, 1, 1], PI2)
        assert bound == pytest.approx(min(PI2, 4 * scale), rel=1e-12, abs=0)

    def test_vanishes_with_degenerate_diffusion(self):
        # the bound scales with min d_i, so it degenerates with the diffusion
        previous = math.inf
        for eps in (1e-3, 1e-6, 1e-9):
            bound = analytic_gap_bound_four_species([1, 1, 1, 1],
                                                    [eps, eps, eps, eps], PI2)
            assert 0 < bound < previous
            assert bound <= PI2 * eps * (1 + 1e-12)
            previous = bound

    def test_below_lambda_star_randomized(self, rng):
        net_domain = Interval(1.0)
        for _ in range(10):
            d = tuple(rng.uniform(0.1, 10.0, size=4))
            while True:
                m12, m14, m32 = rng.uniform(0.1, 10.0, size=3)
                m34 = m14 + m32 - m12
                if 0.1 <= m34 <= 10.0:
                    break
            a = four_species_equilibrium(m12, m14, m32, m34).vector
            net = four_species_network(d=d)
            report = operator_spectral_gap(net, a, net_domain)
            bound = analytic_gap_bound_four_species(a, d, PI2)
            assert bound <= report.lambda_star * (1 + 1e-9)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            analytic_gap_bound_four_species([1, 1, 1], [1, 1, 1], PI2)

    @pytest.mark.parametrize("a", [[np.inf, 1, 1, 1], [1, np.nan, 1, 1]])
    def test_rejects_non_finite_equilibrium(self, a):
        with pytest.raises(ValueError, match="positive and finite"):
            analytic_gap_bound_four_species(a, [1, 1, 1, 1], PI2)
