import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rdbalance import (
    Box,
    DiagnosticsSeries,
    Grid,
    InitialSpec,
    Interval,
    Rectangle,
    SpeciesProfile,
    State,
    conserved_masses,
    decompose,
    entropy_dissipation,
    fit_decay_rate,
    parse_network,
    relative_entropy,
    simulate,
    weighted_norm,
    write_snapshot_csv,
)

from rdbalance import solver
from rdbalance.diagnostics import DiagnosticsRecord

from conftest import exchange_network, four_species_network, random_balanced_network, \
    record_snapshots
from test_solver import mode1_spec

GRID4 = Grid(Interval(1.0), (4,))


def constant_fields(values, grid=GRID4):
    values = np.asarray(values, dtype=float)
    return np.tile(values.reshape((-1,) + (1,) * grid.ndim),
                   (1,) + grid.shape)


class TestWeightedNorm:
    def test_zero_field(self):
        assert weighted_norm(constant_fields([0, 0, 0, 0]), [1, 1, 1, 1], 2,
                             GRID4) == 0.0

    def test_constant_alternating(self):
        h = constant_fields([0.1, -0.1, 0.1, -0.1])
        value = weighted_norm(h, [1, 1, 1, 1], 2, GRID4)
        assert np.isclose(value ** 2, 0.04, rtol=1e-14)

    def test_skewed_weights(self):
        h = constant_fields([0.1, 0.1, 0.1, 0.1])
        value = weighted_norm(h, [2.4, 0.6, 0.4, 1.6], 2, GRID4)
        assert np.isclose(value ** 2, 0.01 * 125 / 24, rtol=1e-13)

    def test_infinity_norm(self):
        h = constant_fields([0.1, -0.3, 0.2, 0.0])
        assert weighted_norm(h, [5, 5, 5, 5], math.inf, GRID4) == 0.3

    def test_monotone_in_p_on_normalized_measure(self, rng):
        # Jensen gives p-monotonicity after normalizing the measure, whose
        # total is (species count) * |Omega| = 4 here
        grid = Grid(Interval(1.0), (32,))
        total = 4.0
        for _ in range(10):
            h = rng.normal(size=(4, 32))
            a = np.ones(4)
            n2 = weighted_norm(h, a, 2, grid) / total ** (1 / 2)
            n4 = weighted_norm(h, a, 4, grid) / total ** (1 / 4)
            linf = weighted_norm(h, a, math.inf, grid)
            assert n2 <= n4 * (1 + 1e-12) <= linf * (1 + 1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            weighted_norm(constant_fields([1, 1, 1, 1]), [1, 1, 1, 1], 0.5, GRID4)

    @pytest.mark.parametrize("a_inf, grid", [([1, 1, 1], GRID4),
                                             ([1, 1, 1, 1], Grid(Interval(1.0), (5,)))])
    def test_field_of_another_shape_rejected(self, a_inf, grid):
        with pytest.raises(ValueError, match="field shape does not match"):
            weighted_norm(constant_fields([1, 1, 1, 1]), a_inf, 2, grid)


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        a = constant_fields([1, 1, 1, 1])
        assert relative_entropy(a, [1, 1, 1, 1], GRID4) == 0.0

    def test_pure_forward_value(self):
        a = constant_fields([2, 0, 2, 0])
        value = relative_entropy(a, [1, 1, 1, 1], GRID4)
        assert np.isclose(value, 4 * math.log(2), rtol=1e-14)

    def test_scaled_equilibrium_gives_total_mass(self):
        a_inf = np.array([2.4, 0.6, 0.4, 1.6])
        a = constant_fields(math.e * a_inf)
        assert np.isclose(relative_entropy(a, a_inf, GRID4), a_inf.sum(),
                          rtol=1e-13)

    def test_positive_away_from_equilibrium(self, rng):
        grid = Grid(Interval(1.0), (16,))
        a_inf = np.array([1.0, 2.0, 0.5, 1.5])
        for _ in range(20):
            a = rng.uniform(0.1, 3.0, size=(4, 16))
            value = relative_entropy(a, a_inf, grid)
            assert value > 0

    def test_close_to_equilibrium_keeps_its_relative_accuracy(self, rng):
        # H = sum_i a*_i integral (r^2/2 - r^3/6 + r^4/12 + O(r^5)), r = h / a*:
        # terms of order a* in a ln(a/a*) - a + a* would cancel to a* r^2
        grid = Grid(Interval(1.0), (16,))
        a_inf = np.array([1.0, 2.0, 0.5, 1.5])
        a_star = a_inf[:, np.newaxis]
        a = a_star * (1 + rng.uniform(-1e-6, 1e-6, size=(4, 16)))
        r = (a - a_star) / a_star  # h is exact: a is within a factor 2 of a*
        series = np.sum(a_star * (r ** 2 / 2 - r ** 3 / 6 + r ** 4 / 12)) * grid.cell_volume
        assert relative_entropy(a, a_inf, grid) == pytest.approx(series, rel=1e-8, abs=0)


class TestEntropyDissipation:
    def test_zero_at_equilibrium(self):
        net = four_species_network()
        a = constant_fields([1, 1, 1, 1])
        fisher, reaction = entropy_dissipation(a, net, [1, 1, 1, 1], GRID4)
        assert fisher == 0.0
        assert abs(reaction) <= 1e-15

    def test_homogeneous_reaction_value(self):
        # Psi(2.25, 0.25) = 2 ln 9
        net = four_species_network()
        a = constant_fields([1.5, 0.5, 1.5, 0.5])
        fisher, reaction = entropy_dissipation(a, net, [1, 1, 1, 1], GRID4)
        assert fisher == 0.0
        assert np.isclose(reaction, 2 * math.log(9), rtol=1e-13)

    def test_nonnegative_random(self, rng):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        for _ in range(20):
            a = rng.uniform(0.05, 3.0, size=(4, 16))
            fisher, reaction = entropy_dissipation(a, net, [1, 1, 1, 1], grid)
            assert fisher >= 0
            assert reaction >= -1e-15

    def test_matches_per_reaction_formula(self, rng):
        grid = Grid(Rectangle(1.0, 0.5), (5, 4))
        squared = empty = False
        for _ in range(20):
            net, a_star = random_balanced_network(rng)
            a = a_star[:, None, None] * rng.uniform(0.5, 1.5, size=(net.n_species, 5, 4))
            alpha, beta = net.alpha_matrix(), net.beta_matrix()
            squared |= bool(max(alpha.max(), beta.max()) == 2)
            empty |= bool(np.any(alpha.sum(axis=1) == 0) or np.any(beta.sum(axis=1) == 0))
            log_u = np.log(a / a_star[:, None, None])
            coeff = net.kf_array() * np.prod(a_star ** alpha, axis=1)
            want = 0.0
            for r in range(net.n_reactions):
                la = np.tensordot(alpha[r].astype(float), log_u, axes=1)
                lb = np.tensordot(beta[r].astype(float), log_u, axes=1)
                want += coeff[r] * np.sum((np.exp(la) - np.exp(lb)) * (la - lb))
            want *= grid.cell_volume
            _, got = entropy_dissipation(a, net, a_star, grid)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert squared and empty

    @pytest.mark.parametrize("extents, shape", [
        ((1.0,), (64,)), ((1.0, 0.6), (24, 16)), ((1.0, 2.0, 0.5), (8, 6, 5))])
    def test_fisher_is_the_per_species_sum_bitwise(self, rng, extents, shape):
        # the per-species loop the one-pass Fisher term replaced, the reference
        def face_gradient_integral(u, base, grid):
            total = 0.0
            for axis in range(grid.ndim):
                du = np.diff(u, axis=axis) / grid.spacing[axis]
                lead = (slice(None),) * axis
                mid = 0.5 * (base[lead + (slice(1, None),)]
                             + base[lead + (slice(None, -1),)])
                total += np.sum(du * du / mid) * grid.cell_volume
            return total

        net = four_species_network(d=(1.0, 0.37, 2.5, 0.011))
        grid = Grid(Box(extents), shape)
        for _ in range(5):
            a = rng.uniform(0.05, 3.0, size=(4,) + shape)
            want = 0.0
            for i in range(4):
                want += net.diffusion[i] * face_gradient_integral(a[i], a[i], grid)
            fisher, _ = entropy_dissipation(a, net, [1, 1, 1, 1], grid)
            assert fisher == want

    def test_rejects_zero_cells(self):
        net = four_species_network()
        a = constant_fields([1, 0, 1, 1])
        with pytest.raises(ValueError, match=r"non-positive cell value for species A2 "
                           r"at cell \(0,\)"):
            entropy_dissipation(a, net, [1, 1, 1, 1], GRID4)

    def test_rejects_nan_cells(self):
        # a NaN is not positive: refused, named like a zero, never summed into the result
        a = constant_fields([1, 1, 0.5, 1])
        a[3, 0] = 0.25
        a[2, 1] = math.nan
        with pytest.raises(ValueError, match=r"species A3 at cell \(1,\)"):
            entropy_dissipation(a, four_species_network(), [1, 1, 1, 1], GRID4)

    def test_balances_entropy_decay_along_trajectory(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (64,))
        result = simulate(net, grid, mode1_spec(), dt=1e-4, t_end=0.01)
        sr = result.series
        dH = np.diff(sr.entropy) / np.diff(sr.t)
        dissipation = sr.fisher + sr.reaction
        mid = 0.5 * (dissipation[1:] + dissipation[:-1])
        assert np.max(np.abs(dH + mid) / mid) <= 0.03


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 100)
        fit = fit_decay_rate(t, 3 * np.exp(-2 * t))
        assert abs(fit.rate - 2.0) <= 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.degenerate

    def test_two_scale_window_picks_slow_mode(self):
        t = np.linspace(0, 5, 100)
        y = np.exp(-t) + np.exp(-10 * t)
        fit = fit_decay_rate(t, y, window=(2.0, 4.0))
        assert 0.99 <= fit.rate <= 1.01

    def test_constant_series_degenerate(self):
        t = np.linspace(0, 1, 20)
        fit = fit_decay_rate(t, np.full(20, 2.5))
        assert fit.rate == 0.0
        assert fit.r_squared == 0.0
        assert fit.degenerate

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_decay_rate(np.linspace(0, 1, 5), np.ones(5))

    @pytest.mark.parametrize("t, y, message", [
        (np.linspace(0, 1, 20), np.ones(19), "matching 1-d arrays"),
        (np.ones((2, 10)), np.ones((2, 10)), "matching 1-d arrays"),
        (np.ones(12), np.linspace(1, 2, 12), "all samples share one time"),
    ])
    def test_malformed_samples(self, t, y, message):
        with pytest.raises(ValueError, match=message):
            fit_decay_rate(t, y)

    def test_nonpositive_y(self):
        t = np.linspace(0, 1, 20)
        y = np.ones(20)
        y[3] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            fit_decay_rate(t, y)


class TestQuadratureConsistency:
    def test_refinement_second_order(self):
        # smooth non-periodic fields; midpoint rule error is O(h^2)
        def norm_at(n):
            grid = Grid(Interval(1.0), (n,))
            x = grid.axis_centers(0)
            h = np.stack([np.exp(x) * (1 + 0.3 * np.cos(math.pi * x)),
                          np.sin(1.5 * x) + 0.2,
                          x ** 2 + 0.1,
                          np.cosh(x - 0.3)])
            return weighted_norm(h, [1.0, 2.0, 0.5, 1.5], 2, grid)

        reference = norm_at(4096)
        errors = [abs(norm_at(n) - reference) for n in (16, 32, 64)]
        slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in slopes)


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        result = simulate(net, grid, mode1_spec(), dt=1e-3, t_end=0.02,
                          output_every=4)
        path = tmp_path / "diag.csv"
        result.series.write_csv(path, comment="rdbalance test 0000")
        loaded = DiagnosticsSeries.read_csv(path)
        assert np.array_equal(loaded.t, result.series.t)
        assert np.array_equal(loaded.masses, result.series.masses)
        assert np.array_equal(loaded.l2, result.series.l2)
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("# rdbalance")

    def test_column_accessor(self, tmp_path):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        series = simulate(net, grid, mode1_spec(), dt=1e-3, t_end=0.01).series
        assert np.array_equal(series.column("L2"), series.l2)
        assert np.array_equal(series.column("M2"), series.masses[:, 1])
        with pytest.raises(KeyError):
            series.column("bogus")

    @pytest.mark.parametrize("name", ["M0", "M01", "M3", "bogus"])
    def test_column_outside_the_header(self, name):
        series = DiagnosticsSeries(np.zeros((2, 9)) + [[0.0], [1.0]])
        assert series.header()[1:3] == ["M1", "M2"]
        with pytest.raises(KeyError, match="unknown diagnostics column"):
            series.column(name)

    @pytest.mark.parametrize("table, message", [
        (np.zeros(8), r"shape \(n, q \+ 7\), not \(8,\)"),
        (np.zeros((3, 6)), r"shape \(n, q \+ 7\), not \(3, 6\)"),
        (np.array([[0.0] * 7, [1.0] * 7, [1.0] * 7]), "times must be strictly increasing"),
    ])
    def test_malformed_table(self, table, message):
        with pytest.raises(ValueError, match=message):
            DiagnosticsSeries(table)

    @pytest.mark.parametrize("header", ["t,X,H,L2,L4,Linf,fisher,reaction",
                                        "t,M2,M1,H,L2,L4,Linf,fisher,reaction",
                                        "t,M1,H,L2,L4,Linf,reaction,fisher",
                                        "t,H,L2,L4,Linf,fisher"])
    def test_read_csv_refuses_a_header_not_its_own(self, tmp_path, header):
        path = tmp_path / "diag.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + "".join(
            ",".join([str(k)] + ["1"] * (width - 1)) + "\n" for k in range(3)))
        with pytest.raises(ValueError, match="unrecognized diagnostics header"):
            DiagnosticsSeries.read_csv(path)

    def test_full_precision(self, tmp_path):
        t = np.array([0.0, 1 / 3, 2 / 3])
        series = DiagnosticsSeries(np.column_stack(
            [t, np.full(3, 1 / 7), t * math.pi, t + 1 / 9, t, t, t, t]))
        path = tmp_path / "d.csv"
        series.write_csv(path)
        loaded = DiagnosticsSeries.read_csv(path)
        assert np.array_equal(loaded.t, t)
        assert np.array_equal(loaded.masses, series.masses)
        assert np.array_equal(loaded.l2, series.l2)

    def test_bytes_match_csv_writer(self, tmp_path):
        t = np.array([0.0, 0.1, 0.2])
        nan_first = np.array([math.nan, 1 / 3, 2e-300])
        series = DiagnosticsSeries(np.column_stack(
            [t, np.full(3, 1 / 7), np.full(3, 3.0), t * math.pi, t + 1 / 9, t, -t,
             nan_first, nan_first * 1e300]))
        path = tmp_path / "diag.csv"
        series.write_csv(path, comment="rdbalance test")
        buf = io.StringIO(newline="")
        buf.write("# rdbalance test\n")
        writer = csv.writer(buf)
        writer.writerow(series.header())
        for k in range(len(t)):
            writer.writerow([f"{series.column(name)[k]:.17g}"
                             for name in series.header()])
        assert path.read_bytes() == buf.getvalue().encode()
        assert b"nan" in path.read_bytes()

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("# rdbalance test\nt,M1,H,L2,L4,Linf,fisher,reaction\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = DiagnosticsSeries.read_csv(path)
        assert series.t.shape == (0,) and series.masses.shape == (0, 1)
        with pytest.warns(UserWarning):  # why the reader skips loadtxt here
            np.loadtxt([], delimiter=",", ndmin=2)


def multi_reaction_network():
    """A seeded random balanced network with at least two reactions."""
    rng = np.random.default_rng(11)
    while True:
        net, a_star = random_balanced_network(rng, max_species=5, max_reactions=4)
        if net.n_reactions >= 2:
            return net, a_star


RECORD_NETWORKS = {
    "four species": lambda: (four_species_network(d=(1.0, 2.0, 0.5, 1.5), kf=1.3, kb=0.6),
                             np.ones(4)),
    "random": multi_reaction_network,
    # 0 <-> A3 pads the gather table with the row of ones
    "empty side": lambda: (parse_network(
        "species A1 A2 A3\ndiffusion A1=1 A2=0.3 A3=2\n"
        "reaction 2 A1 <-> A2 : kf=1.3 kb=0.7\n"
        "reaction 0 <-> A3 : kf=0.5 kb=0.8\n"), np.array([0.8, 1.2, 0.6])),
}


def oracle_row(net, stoich, a_inf, state):
    """A diag.csv row from the standalone functions."""
    grid = state.grid
    h = state.fields - a_inf.reshape((-1,) + (1,) * grid.ndim)
    if state.fields.min() > 0:
        dissipation = entropy_dissipation(state.fields, net, a_inf, grid)
    else:
        dissipation = (math.nan, math.nan)
    return [state.t,
            *conserved_masses(stoich, state.means()).values,
            relative_entropy(state.fields, a_inf, grid),
            *(weighted_norm(h, a_inf, p, grid) for p in (2, 4, math.inf)),
            *dissipation]


class TestDiagnosticsRecord:
    @pytest.mark.parametrize("name", sorted(RECORD_NETWORKS))
    @pytest.mark.parametrize("domain, shape", [(Interval(1.0), (24,)),
                                               (Rectangle(1.0, 0.7), (8, 6)),
                                               (Box((1.0, 0.5, 0.8)), (5, 4, 6))])
    def test_rows_are_the_oracles_bitwise(self, name, domain, shape):
        net, base = RECORD_NETWORKS[name]()
        grid = Grid(domain, shape)
        mode = (1,) * grid.ndim
        spec = InitialSpec(profiles=tuple(
            SpeciesProfile(float(b), ((mode, (-0.1) ** i * b),)) for i, b in enumerate(base)))
        snapshots = []
        result = simulate(net, grid, spec, dt=1e-3, t_end=4e-3, snapshot_every=1,
                          on_snapshot=record_snapshots(snapshots))
        stoich = decompose(net)
        a_inf = result.equilibrium.vector
        rows = result.series.table
        assert len(rows) == len(snapshots) == 5
        for row, snapshot in zip(rows, snapshots):
            want = oracle_row(net, stoich, a_inf, snapshot)
            assert np.all(np.isfinite(want))
            assert np.array_equal(row, want)

    def test_a_zero_cell_gives_nan_dissipation_only(self):
        net = four_species_network(d=(1.0, 2.0, 0.5, 1.5))
        grid = Grid(Rectangle(1.0, 0.7), (8, 6))
        stoich = decompose(net)
        a_inf = np.array([1.0, 2.0, 0.5, 4.0])
        fields = constant_fields(a_inf, grid) * 1.1
        fields[2, 3, 4] = 0.0
        state = State(t=0.5, fields=fields, grid=grid)
        row = DiagnosticsRecord(net, a_inf, grid).rows([state.t], fields[np.newaxis])[0]
        assert np.all(np.isfinite(row[:-2])) and np.all(np.isnan(row[-2:]))
        assert np.array_equal(row, oracle_row(net, stoich, a_inf, state), equal_nan=True)

    @staticmethod
    def spy_on_rows(monkeypatch):
        """The stacks ``DiagnosticsRecord.rows`` is called with, in order."""
        stacks = []
        rows = DiagnosticsRecord.rows

        def spy(self, times, stack):
            stacks.append(stack)
            return rows(self, times, stack)

        monkeypatch.setattr(DiagnosticsRecord, "rows", spy)
        return stacks

    @pytest.mark.parametrize("scheme", ["strang", "imex"])
    @pytest.mark.parametrize("domain, shape, passes", [
        (Interval(1.0), (64,), [64, 7]),           # 256 values a state: 64 a pass
        (Rectangle(1.0, 0.7), (16, 16), [16] * 4 + [7])])  # 1024 values: 16 a pass
    def test_batched_rows_are_the_oracles_bitwise(self, monkeypatch, scheme, domain,
                                                  shape, passes):
        # 71 output states, more than one batch holds: a flush boundary is crossed
        stacks = self.spy_on_rows(monkeypatch)
        net = four_species_network(d=(1.0, 2.0, 0.5, 1.5), kf=1.3, kb=0.6)
        grid = Grid(domain, shape)
        snapshots = []
        result = simulate(net, grid, mode1_spec(ndim=grid.ndim), dt=1e-3, t_end=0.07,
                          scheme=scheme, snapshot_every=1,
                          on_snapshot=record_snapshots(snapshots))
        assert [len(stack) for stack in stacks] == passes
        assert sum(passes) * 4 * grid.n_cells > solver._RECORD_BATCH_VALUES
        stoich = decompose(net)
        a_inf = result.equilibrium.vector
        assert len(result.series.table) == len(snapshots) == 71
        for row, snapshot in zip(result.series.table, snapshots):
            want = oracle_row(net, stoich, a_inf, snapshot)
            assert np.all(np.isfinite(want))
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("name", sorted(RECORD_NETWORKS))
    @pytest.mark.parametrize("domain, shape", [(Interval(1.0), (64,)),
                                               (Rectangle(1.0, 0.7), (8, 6))])
    def test_rows_of_a_rough_stack_are_the_oracles_bitwise(self, name, domain, shape):
        # cells up to 50% off a*: each L^p root is a float power per state,
        # where numpy's vector power can be an ulp off
        net, a_inf = RECORD_NETWORKS[name]()
        grid = Grid(domain, shape)
        rng = np.random.default_rng(29)
        stack = a_inf.reshape((1, -1) + (1,) * grid.ndim) * rng.uniform(
            0.5, 1.5, (40, len(a_inf)) + shape)
        times = np.arange(40) * 0.25
        stoich = decompose(net)
        rows = DiagnosticsRecord(net, a_inf, grid).rows(times, stack)
        a_star = a_inf.reshape((-1,) + (1,) * grid.ndim)
        for row, t, fields in zip(rows, times, stack):
            assert np.array_equal(row, oracle_row(net, stoich, a_inf, State(t, fields, grid)))
            # the norm's root is one float power of the state's own sum, in
            # scaled form: sum_i a*_i integral |r_i|^p over species in order,
            # |r|^p as (r^2)^(p/2)
            r2 = np.square((fields - a_star) / a_star)
            assert row[-5:-3].tolist() == [
                sum(float(total) * grid.cell_volume * weight for total, weight in
                    zip(np.add.reduce((r2 ** (p / 2)).reshape(len(a_inf), -1), axis=1),
                        a_inf)) ** (1.0 / p) for p in (2, 4)]

    def test_a_zero_cell_gives_nan_dissipation_only_in_its_own_row(self, monkeypatch,
                                                                   tmp_path):
        # a run from a snapshot with a zero cell: the initial state, buffered
        # with the next ones, is the only row without dissipation
        stacks = self.spy_on_rows(monkeypatch)
        net = four_species_network(d=(1.0, 2.0, 0.5, 1.5))
        grid = Grid(Interval(1.0), (16,))
        fields = 1.0 + 0.1 * np.cos(math.pi * grid.centers()[0]) * np.ones((4, 1))
        fields[2, 5] = 0.0
        write_snapshot_csv(tmp_path / "zero.csv", State(0.0, fields, grid), net.species)
        snapshots = []
        result = simulate(net, grid, InitialSpec(csv_path=str(tmp_path / "zero.csv")),
                          dt=1e-3, t_end=0.01, snapshot_every=1,
                          on_snapshot=record_snapshots(snapshots))
        assert [len(stack) for stack in stacks] == [11]
        table = result.series.table
        assert np.all(np.isnan(table[0, -2:])) and np.all(np.isfinite(table[0, :-2]))
        assert np.all(np.isfinite(table[1:]))
        stoich, a_inf = decompose(net), result.equilibrium.vector
        for row, snapshot in zip(table, snapshots):
            assert np.array_equal(row, oracle_row(net, stoich, a_inf, snapshot), equal_nan=True)
        # the same in the middle of a stack, next to positive states
        stack = np.stack([s.fields for s in snapshots[1:4]])
        stack[1, 0, 3] = 0.0
        rows = DiagnosticsRecord(net, a_inf, grid).rows([1.0, 2.0, 3.0], stack)
        assert np.isnan(rows[:, -2:]).tolist() == [[False] * 2, [True] * 2, [False] * 2]
        for row, t, state in zip(rows, [1.0, 2.0, 3.0], stack):
            assert np.array_equal(row, oracle_row(net, stoich, a_inf, State(t, state, grid)),
                                  equal_nan=True)

    @pytest.mark.parametrize("scale", [1e80, 1e-150])
    def test_rows_are_covariant_under_state_scale(self, scale):
        # each column scales as s^power: the norms are formed from r = h / a*,
        # so no |h|^4 leaves float range, not even in the row of a* itself
        net = exchange_network()
        grid = Grid(Interval(1.0), (16,))

        def rows(s):
            a_inf = s * np.array([1.0, 2.0])
            fields = a_inf[:, np.newaxis] * (1 + 0.01 * np.cos(math.pi * grid.centers()[0]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return DiagnosticsRecord(net, a_inf, grid).rows(
                    [0.25, 0.5], np.stack([np.tile(a_inf[:, np.newaxis], 16), fields]))

        powers = [0.0, 1.0, 1.0, 0.5, 0.25, 1.0, 1.0, 1.0]  # t, M1, H, L2, L4, ...
        unit = rows(1.0)
        assert np.all(unit[1, 2:-1] > 0)  # a2 / a1 = 2 in every cell: no reaction
        np.testing.assert_allclose(rows(scale), unit * scale ** np.array(powers),
                                   rtol=5e-12, atol=0)

    def test_a_norm_past_float_range_is_refused_by_name(self):
        # a* = 1e306 with one cell at 1.7e307 (r = 16): L4's sum a* r^4 / 16
        # is 4e309, the first column past float range; H and L2 stay finite
        net = exchange_network()
        grid = Grid(Interval(1.0), (16,))
        a_inf = np.array([1e306, 2e306])
        fields = np.tile(a_inf[:, np.newaxis], 16)
        fields[0, 3] = 1.7e307
        record = DiagnosticsRecord(net, a_inf, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"\Adiag.csv column L4 is inf "
                                                         r"at t = 0.5: past float range\Z"):
                record.rows([0.5], fields[np.newaxis])

    def test_a_dissipation_past_float_range_is_refused_by_name(self):
        # kf a*^alpha = 1e308: each cell of a state 50% off a* adds 1.1e308
        # to the reaction term, a positive state's, so it is no NaN to keep
        net = exchange_network(kf=1e308, kb=1e308)
        grid = Grid(Interval(1.0), (16,))
        fields = np.stack([np.full(16, 1.5), np.full(16, 0.5)])
        with pytest.raises(FloatingPointError, match=r"\Adiag.csv column reaction is inf "
                                                     r"at t = 1: past float range\Z"):
            DiagnosticsRecord(net, [1.0, 1.0], grid).rows([1.0], fields[np.newaxis])

    def test_a_state_at_the_bound_takes_a_pass_of_its_own(self, monkeypatch):
        # 4 species on 64 x 64 cells: 2^14 values, the whole batch bound
        stacks = self.spy_on_rows(monkeypatch)
        net = four_species_network()
        grid = Grid(Rectangle(1.0, 1.0), (64, 64))
        assert 4 * grid.n_cells == solver._RECORD_BATCH_VALUES
        snapshots = []
        result = simulate(net, grid, mode1_spec(ndim=2), dt=1e-3, t_end=3e-3,
                          snapshot_every=1, on_snapshot=record_snapshots(snapshots))
        assert [len(stack) for stack in stacks] == [1] * 4 == [1] * len(result.series.t)
        # each pass reads its state's own fields, with no copy
        assert all(np.shares_memory(stack, snapshot.fields)
                   for stack, snapshot in zip(stacks, snapshots))

    def test_row_peak_memory_is_no_more_than_a_standalone_call(self):
        # one row must not hold more full-grid temporaries at once than the
        # worst of the calls it replaces; the slack covers the row's own
        # Python floats and tuples, far below one (4, 64, 64) array (128 KiB)
        net = four_species_network(d=(1.0, 2.0, 0.5, 1.5))
        grid = Grid(Rectangle(1.0, 1.0), (64, 64))
        a_inf = np.array([1.0, 2.0, 0.5, 1.5])
        x, y = grid.centers()
        fields = a_inf.reshape(-1, 1, 1) * (1 + 0.1 * np.cos(math.pi * x) * np.cos(math.pi * y))
        h = fields - a_inf.reshape(-1, 1, 1)
        record = DiagnosticsRecord(net, a_inf, grid)

        def peak(call):
            call()  # warm caches first
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        standalone = [peak(lambda: relative_entropy(fields, a_inf, grid)),
                      peak(lambda: entropy_dissipation(fields, net, a_inf, grid))]
        standalone += [peak(lambda: weighted_norm(h, a_inf, p, grid))
                       for p in (2, 4, math.inf)]
        assert peak(lambda: record.rows([0.0], fields[np.newaxis])) <= max(standalone) + 1024
