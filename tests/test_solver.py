import csv
import functools
import io
import math
from pathlib import Path

import numpy as np
import pytest

from rdbalance import (
    Box,
    Grid,
    Reaction,
    ReactionNetwork,
    InitialSpec,
    Interval,
    NonPositivityError,
    Rectangle,
    SpeciesProfile,
    State,
    Stepper,
    build_initial,
    decompose,
    default_dt,
    fit_decay_rate,
    operator_spectral_gap,
    parse_network,
    simulate,
    step,
    write_snapshot_csv,
)

from rdbalance.network import Kinetics
from rdbalance.solver import NEGATIVE_TOL, _dct_basis

from conftest import build_laplacian, four_species_network, random_balanced_network

PI2 = math.pi ** 2


def uniform_spec(values, modes=None):
    modes = modes or {}
    return InitialSpec(profiles=tuple(
        SpeciesProfile(float(v), modes.get(i, ())) for i, v in enumerate(values)))


def mode1_spec(eps=0.01, ndim=1):
    """a1 = a3 = 1 + e, a2 = a4 = 1 - e with e = eps cos(pi x) on the first axis."""
    mode = (1,) + (0,) * (ndim - 1)
    signs = (1, -1, 1, -1)
    return InitialSpec(profiles=tuple(
        SpeciesProfile(1.0, ((mode, s * eps),)) for s in signs))


class TestLaplacian:
    def test_annihilates_constants_1d(self):
        lap = build_laplacian(Grid(Interval(2.0), (16,)))
        assert np.all(lap.apply(np.full(16, 3.7)) == 0.0)

    def test_annihilates_constants_2d(self):
        lap = build_laplacian(Grid(Rectangle(1.0, 2.0), (8, 12)))
        assert np.all(lap.apply(np.full((8, 12), 1.3)) == 0.0)

    def test_cell_sum_telescopes(self, rng):
        grid = Grid(Interval(1.0), (64,))
        lap = build_laplacian(grid)
        u = rng.normal(size=64)
        assert abs(np.sum(lap.apply(u))) <= 1e-13 * np.linalg.norm(u) / min(grid.spacing) ** 2

    def test_cosine_mode_second_order(self):
        errors = []
        for n in (32, 64, 128):
            grid = Grid(Interval(1.0), (n,))
            x = grid.axis_centers(0)
            u = np.cos(math.pi * x)
            lap = build_laplacian(grid).apply(u)
            errors.append(np.max(np.abs(lap + PI2 * u)))
        slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.9 <= s <= 2.1 for s in slopes)

    def test_cosine_mode_2d(self):
        grid = Grid(Rectangle(1.0, 1.0), (64, 64))
        x, y = grid.centers()
        u = np.cos(math.pi * x) * np.cos(2 * math.pi * y)
        lap = build_laplacian(grid).apply(u)
        assert np.max(np.abs(lap + 5 * PI2 * u)) <= 5 * PI2 * 2e-3


class TestDiffusionSemigroup:
    @pytest.mark.parametrize("n", [4, 5, 64, 192])
    def test_basis_is_the_orthonormal_dct(self, n):
        fft = pytest.importorskip("scipy.fft")
        c = _dct_basis(n)
        want = fft.dct(np.eye(n), axis=0, norm="ortho")
        assert np.max(np.abs(c - want)) <= 1e-15
        assert np.max(np.abs(c @ c.T - np.eye(n))) <= 5e-15

    @pytest.mark.parametrize("scheme, tau", [("strang", 0.025), ("imex", 0.05)])
    @pytest.mark.parametrize("domain, shape", [(Interval(2.0), (12,)),
                                               (Rectangle(1.5, 0.7), (6, 9)),
                                               (Interval(8.0), (256,)),
                                               (Box((1.0, 1.2, 0.9)), (4, 5, 6)),
                                               (Box((1.0, 0.8, 1.1, 1.3)), (4, 4, 4, 5)),
                                               (Rectangle(8.0, 0.5), (200, 4))])
    def test_matches_matrix_exponential(self, rng, scheme, tau, domain, shape):
        # The long sides keep tau d |L| moderate: at h = 1/256 expm itself
        # drifts the mean by 7e-13 while the DCT stays within 1e-14.
        expm = pytest.importorskip("scipy.linalg").expm
        d = (1.0, 0.5, 2.0, 0.1)
        grid = Grid(domain, shape)
        lap = build_laplacian(grid)
        eye = np.eye(grid.n_cells)
        L = np.column_stack([lap.apply(e.reshape(shape)).ravel() for e in eye])
        fields = rng.random((4,) + shape)
        diffusion = Stepper(four_species_network(d=d), grid, 0.05, scheme).diffusion
        assert diffusion._dense == (max(shape) <= 192)  # both paths are covered
        got = diffusion.apply(fields)
        for i in range(4):
            want = expm(tau * d[i] * L) @ fields[i].ravel()
            assert np.max(np.abs(got[i].ravel() - want)) <= 1e-13

    @pytest.mark.parametrize("n", [64, 256])  # dense propagators, DCT
    def test_single_cell_spike_stays_positive(self, n):
        # Crank-Nicolson half steps overshoot this spike to -5.9 in one step
        if n > 192:
            pytest.importorskip("scipy")
        net = four_species_network()
        grid = Grid(Interval(1.0), (n,))
        fields = np.ones((4, n))
        fields[0, n // 2] = 50.0
        state = State(t=0.0, fields=fields, grid=grid)
        q = decompose(net).Q.astype(float)
        masses0 = q @ state.means()
        stepper = Stepper(net, grid, 1e-3, "strang")
        for _ in range(20):
            state = stepper.advance(state)
            assert state.fields.min() > 0
            assert np.max(np.abs(q @ state.means() - masses0)) <= 1e-12 * np.max(masses0)


def dimer_network() -> ReactionNetwork:
    """2 A1 <-> A2 and 0 <-> A3: a squared factor and an empty side."""
    return ReactionNetwork(
        species=("A1", "A2", "A3"),
        reactions=(Reaction((2, 0, 0), (0, 1, 0), 1.3, 0.7),
                   Reaction((0, 0, 0), (0, 0, 1), 0.5, 0.8)),
        diffusion=(1.0, 0.3, 2.0),
    )


def power_production(net, fields):
    """Mass-action production by stoichiometric powers, the reference."""
    flat = fields.reshape(fields.shape[0], -1)
    alpha, beta = net.alpha_matrix(), net.beta_matrix()
    mono_a = np.prod(flat[np.newaxis] ** alpha[:, :, np.newaxis], axis=1)
    mono_b = np.prod(flat[np.newaxis] ** beta[:, :, np.newaxis], axis=1)
    flux = net.kf_array()[:, np.newaxis] * mono_a - net.kb_array()[:, np.newaxis] * mono_b
    return ((beta - alpha).T.astype(float) @ flux).reshape(fields.shape)


class TestMultiStepAdvance:
    @pytest.mark.parametrize("scheme", ["strang", "imex"])
    @pytest.mark.parametrize("domain, shape", [(Interval(1.0), (32,)),
                                               (Rectangle(1.0, 0.6), (12, 20))])
    def test_chunk_equals_single_steps(self, rng, scheme, domain, shape):
        grid = Grid(domain, shape)
        stepper = Stepper(dimer_network(), grid, 1e-3, scheme)
        start = State(t=0.0, fields=0.5 + rng.random((3,) + shape), grid=grid)
        kept = start.fields.copy()
        chunk = stepper.advance(start, 10)
        assert np.array_equal(start.fields, kept)  # the input is never overwritten
        single = start
        for _ in range(10):
            single = stepper.advance(single)
        assert np.max(np.abs(chunk.fields - single.fields)) <= 1e-13
        assert chunk.t == pytest.approx(single.t, abs=1e-15)

    def test_single_step_is_the_unmerged_splitting(self, rng):
        # D(dt/2), Heun, D(dt/2) with power-law production: bitwise, since
        # a 0/1 stoichiometry makes powers and gathers the same products
        net = four_species_network(d=(1.0, 0.5, 2.0, 0.1))
        grid = Grid(Rectangle(1.0, 2.0), (6, 9))
        dt = 1e-2
        stepper = Stepper(net, grid, dt, "strang")
        fields = 0.5 + rng.random((4, 6, 9))
        got = stepper.advance(State(t=0.0, fields=fields, grid=grid)).fields
        half = stepper.diffusion.apply
        want = half(fields)
        k1 = power_production(net, want)
        k2 = power_production(net, want + dt * k1)
        want = half(want + 0.5 * dt * (k1 + k2))
        assert np.array_equal(got, want)

    def test_production_matches_powers(self, rng):
        for _ in range(20):
            net, _ = random_balanced_network(rng)
            fields = rng.uniform(0.1, 3.0, size=(net.n_species, 7, 5))
            want = power_production(net, fields)
            got = Kinetics(net).production(fields)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_stepping_a_three_factor_side(self, rng):
        # cubic.rdn is inadmissible (3 A1) but still steps: its table is 3 deep
        net = parse_network((DATA / "cubic.rdn").read_text())
        grid = Grid(Interval(1.0), (8,))
        fields = 0.5 + rng.random((2, 8))
        got = Stepper(net, grid, 1e-3, "imex").advance(State(0.0, fields, grid)).fields
        want = Stepper(net, grid, 1e-3, "imex").diffusion.apply(fields)
        want = want + 1e-3 * power_production(net, want)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scheme, calls_per_step", [("strang", 2), ("imex", 1)])
    def test_nan_mid_chunk_aborts(self, scheme, calls_per_step):
        grid = Grid(Interval(1.0), (16,))
        stepper = Stepper(dimer_network(), grid, 1e-3, scheme)
        production = stepper.reaction.production
        calls = []

        def poisoned(fields):
            calls.append(None)
            rate = production(fields)
            if len(calls) == 4 * calls_per_step:  # the reaction of step 4
                rate[1, 7] = math.nan
            return rate

        stepper.reaction.production = poisoned
        state = State(t=0.0, fields=np.ones((3, 16)), grid=grid)
        with pytest.raises(NonPositivityError, match=r"A2 is not finite at cell \(7,\)") \
                as info:
            stepper.advance(state, 10)
        assert info.value.t == pytest.approx(4e-3)
        assert len(calls) == 4 * calls_per_step

    def test_needs_a_step(self):
        stepper = Stepper(dimer_network(), Grid(Interval(1.0), (8,)), 1e-3, "strang")
        with pytest.raises(ValueError, match="n_steps"):
            stepper.advance(State(t=0.0, fields=np.ones((3, 8)), grid=stepper.grid), 0)


DATA = Path(__file__).parent / "data"

GATHER_NETWORKS = {
    # name: (.rdn text, factor count F of the deepest side)
    "empty side": ("species A1 A2\ndiffusion A1=1 A2=1\n"
                   "reaction 0 <-> A1 : kf=1.5 kb=0.5\n", 1),
    "one factor": ("species A1 A2\ndiffusion A1=1 A2=1\n"
                   "reaction A1 <-> A2 : kf=2 kb=1\n", 1),
    "2 A": ("species A1 A2\ndiffusion A1=1 A2=1\n"
            "reaction 2 A1 <-> A2 : kf=1.3 kb=0.7\n", 2),
    "A + B": ("species A1 A2 A3 A4\ndiffusion A1=1 A2=1 A3=1 A4=1\n"
              "reaction A1 + A3 <-> A2 + A4 : kf=1 kb=3\n", 2),
    "mixed": ("species A1 A2 A3 A4\ndiffusion A1=1 A2=1 A3=1 A4=1\n"
              "reaction 2 A1 <-> A2 : kf=1.3 kb=0.7\n"
              "reaction A1 + A3 <-> A4 : kf=0.9 kb=1.1\n"
              "reaction 0 <-> A3 : kf=0.5 kb=0.8\n"
              "reaction A4 <-> A2 + A3 : kf=2 kb=0.25\n", 2),
    "cubic.rdn": ((DATA / "cubic.rdn").read_text(), 3),
}


def slot_monomials(net, flat):
    """(2R, N) monomials, forward sides then backward, each the product of
    its factors taken one at a time in species order: the reference."""
    sides = [r.alpha for r in net.reactions] + [r.beta for r in net.reactions]
    rows = []
    for side in sides:
        mono = np.ones(flat.shape[1])
        for i, count in enumerate(side):
            for _ in range(count):
                mono = mono * flat[i]
        rows.append(mono)
    return np.array(rows)


class TestGatherTable:
    @pytest.fixture(params=sorted(GATHER_NETWORKS))
    def case(self, request):
        text, depth = GATHER_NETWORKS[request.param]
        return parse_network(text), depth

    def test_table_shape(self, case):
        net, depth = case
        assert net.kinetics.gather.shape == (depth, 2 * net.n_reactions)

    def test_monomials_and_fluxes_are_the_slot_products(self, case, rng):
        net, _ = case
        fields = rng.uniform(0.1, 3.0, size=(net.n_species, 7, 5))
        flat = fields.reshape(net.n_species, -1)
        want = slot_monomials(net, flat)
        assert np.array_equal(net.kinetics.monomials(flat), want)
        r = net.n_reactions
        forward, backward = net.kinetics.fluxes(fields)
        assert np.array_equal(forward, (net.kf_array()[:, None] * want[:r]).reshape(forward.shape))
        assert np.array_equal(backward, (net.kb_array()[:, None] * want[r:]).reshape(backward.shape))
        vector = fields[:, 2, 3]
        forward, backward = net.kinetics.fluxes(vector)
        assert forward.shape == backward.shape == (r,)
        assert np.array_equal(forward, net.kf_array() * want[:r, 2 * 5 + 3])

    def test_production_is_the_slot_product_and_the_power_law(self, case, rng):
        net, _ = case
        fields = rng.uniform(0.1, 3.0, size=(net.n_species, 7, 5))
        mono = slot_monomials(net, fields.reshape(net.n_species, -1))
        wt = (net.beta_matrix() - net.alpha_matrix()).T.astype(float)
        signed = np.hstack([wt * net.kf_array(), -wt * net.kb_array()])
        got = net.kinetics.production(fields)
        assert np.array_equal(net.kinetics.signed, signed)
        assert np.array_equal(got, np.dot(signed, mono).reshape(fields.shape))
        assert np.allclose(got, power_production(net, fields), rtol=1e-13, atol=1e-13)


UNIT_RATE_NETWORKS = {
    "four_species_unit.rdn": (DATA / "four_species_unit.rdn").read_text(),
    # exchange-style: one reaction, rates that are powers of two
    "exchange 2:1": ("species A1 A2\ndiffusion A1=1 A2=1\n"
                     "reaction A1 <-> A2 : kf=2 kb=1\n"),
    "2 A1 <-> A2": ("species A1 A2\ndiffusion A1=1 A2=1\n"
                    "reaction 2 A1 <-> A2 : kf=1 kb=1\n"),
}


@pytest.mark.parametrize("name", sorted(UNIT_RATE_NETWORKS))
def test_unit_rate_production_is_the_flux_product_bitwise(name, rng):
    # every product of S m is exact here, so S m and W^T K round the same one
    # subtraction: the relax outputs of the four-species swap do not move
    net = parse_network(UNIT_RATE_NETWORKS[name])
    for shape in [(64,), (7, 5), (16, 16)]:
        fields = rng.uniform(0.01, 3.0, size=(net.n_species,) + shape)
        mono = slot_monomials(net, fields.reshape(net.n_species, -1))
        r = net.n_reactions
        flux = net.kf_array()[:, None] * mono[:r] - net.kb_array()[:, None] * mono[r:]
        wt = (net.beta_matrix() - net.alpha_matrix()).T.astype(float)
        assert np.array_equal(net.kinetics.production(fields),
                              np.dot(wt, flux).reshape(fields.shape))


class TestPositivityCheck:
    """``Stepper._check`` names the cell that argmin/argmax pick: the first
    NaN if there is one, else the minimum, then the maximum."""

    SHAPE = (3, 4, 5)

    @staticmethod
    def argmin_argmax(fields):
        """(species, cell, value) at fault, or None: the reference."""
        worst_low, worst_high = int(np.argmin(fields)), int(np.argmax(fields))
        floor = NEGATIVE_TOL * abs(float(fields.flat[worst_high]))
        for worst in (worst_low, worst_high):
            value = float(fields.flat[worst])
            if not (value >= floor and math.isfinite(value)):
                i, *cell = np.unravel_index(worst, fields.shape)
                return ("A%d" % (i + 1), tuple(int(c) for c in cell), value)
        return None

    def check(self, fields):
        grid = Grid(Rectangle(1.0, 2.0), self.SHAPE[1:])
        net = ReactionNetwork(("A1", "A2", "A3"),
                              (Reaction((1, 0, 0), (0, 1, 1), 1.0, 1.0),), (1.0, 1.0, 1.0))
        want = self.argmin_argmax(fields)
        if want is None:
            Stepper(net, grid, 1e-3, "strang")._check(fields, 0.25)
            return
        with pytest.raises(NonPositivityError) as info:
            Stepper(net, grid, 1e-3, "strang")._check(fields, 0.25)
        error = info.value
        got = (error.species, error.cell, error.value)
        assert got[:2] == want[:2]
        assert got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))
        assert error.t == 0.25

    @pytest.mark.parametrize("cells", [
        {(0, 0, 0): math.nan},
        {(2, 3, 1): math.nan},
        {(1, 0, 0): -1.0, (2, 3, 1): math.nan},  # the NaN is named, not the minimum
        {(1, 2, 2): math.inf},
        {(0, 1, 3): -math.inf},
        {(1, 2, 2): math.inf, (2, 0, 4): -0.5},
        {(0, 3, 4): -1e-3},
    ])
    def test_rejected_cells_are_named_as_argmin_argmax_name_them(self, rng, cells):
        fields = 0.5 + rng.random(self.SHAPE)
        for index, value in cells.items():
            fields[index] = value
        assert self.argmin_argmax(fields) is not None
        self.check(fields)

    def test_tolerance_edge(self):
        fields = np.ones(self.SHAPE)
        fields[2, 1, 1] = 2.0
        floor = NEGATIVE_TOL * 2.0
        fields[1, 3, 2] = floor  # accepted
        self.check(fields)
        fields[1, 3, 2] = np.nextafter(floor, -math.inf)  # rejected
        assert self.argmin_argmax(fields) == ("A2", (3, 2), fields[1, 3, 2])
        self.check(fields)

    def test_all_zero_and_all_negative(self):
        self.check(np.zeros(self.SHAPE))
        fields = np.full(self.SHAPE, -1.0)
        fields[1, 2, 3] = -4.0
        self.check(fields)
        self.check(np.full(self.SHAPE, -math.inf))


class TestSnapshotCsv:
    def reference_bytes(self, state, names, comment):
        # the per-cell csv.writer format the snapshot files have always had
        buf = io.StringIO(newline="")
        buf.write(f"# {comment}\n")
        writer = csv.writer(buf)
        writer.writerow(list("xyzw"[:state.grid.ndim]) + names)
        coords = [c.ravel() for c in state.grid.centers()]
        flat = state.fields.reshape(state.n_species, -1)
        for idx in range(state.grid.n_cells):
            writer.writerow([f"{c[idx]:.17g}" for c in coords]
                            + [f"{flat[i, idx]:.17g}" for i in range(state.n_species)])
        return buf.getvalue().encode()

    def test_bytes_match_csv_writer_and_read_back(self, tmp_path, rng):
        grid = Grid(Rectangle(1.0, 3.0), (5, 7))
        fields = rng.random((2, 5, 7)) * 10.0 ** rng.integers(-300, 300, (2, 5, 7))
        fields[0, 0, 0] = 0.0
        state = State(t=0.0, fields=fields, grid=grid)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, state, ["A1", "A2"], comment="rdbalance test")
        reference = self.reference_bytes(state, ["A1", "A2"], "rdbalance test")
        assert path.read_bytes() == reference
        old = tmp_path / "old.csv"
        old.write_bytes(reference)
        back = build_initial(InitialSpec(csv_path=str(old)), grid, ("A2", "A1"))
        assert np.array_equal(back.fields, fields[::-1])

    @pytest.mark.parametrize("shape", [(4, 5, 6), (4, 4, 5, 4)])
    def test_bytes_and_read_back_in_3d_and_4d(self, tmp_path, rng, shape):
        grid = Grid(Box((1.0, 2.0, 0.5, 3.0)[:len(shape)]), shape)
        state = State(t=0.0, fields=rng.random((2,) + shape), grid=grid)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, state, ["A1", "A2"], comment="rdbalance test")
        assert path.read_bytes() == self.reference_bytes(state, ["A1", "A2"],
                                                         "rdbalance test")
        assert path.read_text().splitlines()[1] == ",".join("xyzw"[:len(shape)]) + ",A1,A2"
        back = build_initial(InitialSpec(csv_path=str(path)), grid, ("A1", "A2"))
        assert np.array_equal(back.fields, state.fields)

    def write(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_text(text)
        return InitialSpec(csv_path=str(path))

    def test_empty_file(self, tmp_path):
        spec = self.write(tmp_path, "# only a comment\n\n")
        with pytest.raises(ValueError, match="empty snapshot file"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1",))

    def test_missing_species_column(self, tmp_path):
        spec = self.write(tmp_path, "x,A1\n" + "0.5,1\n" * 4)
        with pytest.raises(ValueError, match="missing a species column"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1", "A2"))

    def test_repeated_species_column(self, tmp_path):
        spec = self.write(tmp_path, "x,A1,A1,A2\n" + "0.125,1,9,2\n0.375,1,9,2\n"
                          "0.625,1,9,2\n0.875,1,9,2\n")
        with pytest.raises(ValueError, match="cells.csv names the column A1 twice"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1", "A2"))

    def test_wrong_cell_count(self, tmp_path):
        spec = self.write(tmp_path, "x,A1\n" + "0.5,1\n" * 5)
        with pytest.raises(ValueError, match="has 5 cells, grid needs 4"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1",))

    @pytest.mark.parametrize("rows", ["0.5,1\n0.5\n0.5,1\n0.5,1\n",
                                      "0.5,1,2\n" * 4])
    def test_ragged_rows(self, tmp_path, rows):
        spec = self.write(tmp_path, "x,A1\n" + rows)
        with pytest.raises(ValueError, match="ragged"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1",))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cell(self, tmp_path, value):
        spec = self.write(tmp_path, f"x,A1\n0.125,1\n0.375,1\n0.625,{value}\n0.875,1\n")
        with pytest.raises(ValueError, match=r"non-finite initial value .* cell \(2,\)"):
            build_initial(spec, Grid(Interval(1.0), (4,)), ("A1",))

    @pytest.mark.parametrize("grid, message", [
        (Grid(Rectangle(1.0, 1.0), (16, 16)), "data row 1: y = 0.0625 lies outside"),
        (Grid(Interval(1.0), (256,)), "data row 1: x = 0.015625 lies outside"),
        (Grid(Rectangle(2.0, 1.0), (32, 8)), "data row 9: x = 0.046875 lies outside"),
        (Grid(Box((1.0, 1.0, 1.0)), (8, 8, 4)), r"columns \['x', 'y', 'A1'\] where a 3-d"),
    ])
    def test_snapshot_of_another_grid_is_refused(self, tmp_path, rng, grid, message):
        source = Grid(Rectangle(1.0, 1.0), (32, 8))
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, State(t=0.0, fields=rng.random((2, 32, 8)), grid=source),
                           ["A1", "A2"])
        with pytest.raises(ValueError, match=message):
            build_initial(InitialSpec(csv_path=str(path)), grid, ("A1", "A2"))

    def test_coordinates_rounded_to_six_digits_load(self, tmp_path, rng):
        grid = Grid(Rectangle(1.0, 3.0), (6, 7))
        fields = rng.random((1, 6, 7))
        x, y = grid.centers()
        rows = "".join(f"{a:.6g},{b:.6g},{v!r}\n"
                       for a, b, v in zip(x.ravel(), y.ravel(), fields.ravel().tolist()))
        spec = self.write(tmp_path, "x,y,A1\n" + rows)
        assert np.array_equal(build_initial(spec, grid, ("A1",)).fields, fields)


class TestInitialData:
    def test_uniform(self):
        state = build_initial(uniform_spec([1, 1, 1, 1]), Grid(Interval(1.0), (8,)))
        assert np.all(state.fields == 1.0)
        assert state.t == 0.0

    def test_cosine_profile_matches_formula(self):
        grid = Grid(Interval(2.0), (32,))
        state = build_initial(
            uniform_spec([1, 1], modes={0: (((2,), 0.25),)}), grid)
        x = grid.axis_centers(0)
        assert np.allclose(state.fields[0], 1 + 0.25 * np.cos(2 * math.pi * x / 2.0))
        assert np.all(state.fields[1] == 1.0)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError, match="negative initial value"):
            build_initial(uniform_spec([1, 1], modes={0: (((1,), 2.0),)}),
                          Grid(Interval(1.0), (8,)))

    def test_2d_mode(self):
        grid = Grid(Rectangle(1.0, 1.0), (8, 8))
        state = build_initial(
            uniform_spec([1], modes={0: (((1, 1), 0.5),)}), grid)
        x, y = grid.centers()
        assert np.allclose(state.fields[0],
                           1 + 0.5 * np.cos(math.pi * x) * np.cos(math.pi * y))

    def test_mode_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            build_initial(uniform_spec([1], modes={0: (((1, 1), 0.1),)}),
                          Grid(Interval(1.0), (8,)))

    @pytest.mark.parametrize("extents, message", [((), "1 to 4 sides, got 0"),
                                                  ((1.0,) * 5, "1 to 4 sides, got 5"),
                                                  ((1.0, 0.0), "must be positive"),
                                                  ((1.0, math.nan), "must be positive")])
    def test_box_refuses_bad_extents(self, extents, message):
        with pytest.raises(ValueError, match=message):
            Box(extents)

    def test_cosine_profile_in_4d(self):
        grid = Grid(Box((1.0, 2.0, 0.5, 1.5)), (4, 5, 6, 4))
        state = build_initial(uniform_spec([1], modes={0: (((1, 0, 2, 1), 0.5),)}), grid)
        x, y, z, w = grid.centers()
        want = 1 + 0.5 * np.cos(math.pi * x) * np.cos(2 * math.pi * z / 0.5) \
            * np.cos(math.pi * w / 1.5)
        assert np.allclose(state.fields[0], want, rtol=0, atol=1e-15)


class TestStep:
    @pytest.mark.parametrize("scheme", ["strang", "imex"])
    def test_equilibrium_fixed_point(self, scheme):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        state = build_initial(uniform_spec([1, 1, 1, 1]), grid)
        advanced = step(state, net, dt=1e-2, scheme=scheme)
        assert np.max(np.abs(advanced.fields - 1.0)) <= 1e-14

    def test_homogeneous_closed_form(self):
        # a1(t) = 1 + exp(-4 t) from a0 = (2, 0, 2, 0)
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        state = build_initial(uniform_spec([2, 0, 2, 0]), grid)
        stepper = Stepper(net, grid, 1e-3, "strang")
        for _ in range(500):
            state = stepper.advance(state)
        a1 = float(state.fields[0].mean())
        assert abs(a1 - (1 + math.exp(-2.0))) <= 1e-6

    def test_pure_diffusion_mode_decay(self):
        # zero companion species make the reaction flux vanish identically
        net = four_species_network(d=(1.0, 1.0, 1.0, 1.0))
        grid = Grid(Interval(1.0), (64,))
        spec = uniform_spec([1, 0, 0, 0], modes={0: (((1,), 0.1),)})
        state = build_initial(spec, grid)
        stepper = Stepper(net, grid, 1e-3, "strang")
        for _ in range(100):
            state = stepper.advance(state)
        x = grid.axis_centers(0)
        exact = 1 + 0.1 * math.exp(-PI2 * 0.1) * np.cos(math.pi * x)
        assert np.max(np.abs(state.fields[0] - exact)) <= 1e-4

    def test_nonpositivity_abort(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        fields = np.full((4, 8), 1.0)
        fields[1, 3] = -1e-3
        state = State(t=0.0, fields=fields, grid=grid)
        with pytest.raises(NonPositivityError, match="A2"):
            step(state, net, dt=1e-5, scheme="strang")

    @pytest.mark.parametrize("scheme", ["strang", "imex"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_abort(self, scheme, value):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        fields = np.full((4, 8), 1.0)
        fields[2, 5] = value
        state = State(t=0.0, fields=fields, grid=grid)
        with pytest.raises(NonPositivityError, match=r"A3 .* at cell \(5,\)"):
            step(state, net, dt=1e-3, scheme=scheme)

    def test_tolerance_scales_with_the_field(self):
        # -5e-11 is 50 times the scale of a 1e-12 field: not roundoff
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        fields = np.full((4, 8), 1e-12)
        fields[1, 3] = -5e-11
        with pytest.raises(NonPositivityError, match="A2 went negative"):
            step(State(t=0.0, fields=fields, grid=grid), net, dt=1e-3)

    def test_roundoff_of_a_large_field_passes(self):
        stepper = Stepper(four_species_network(), Grid(Interval(1.0), (8,)), 1e-3,
                          "strang")
        fields = np.full((4, 8), 1e12)
        fields[1, 3] = -1e-6
        stepper._check(fields, 0.0)

    def test_unknown_scheme(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        with pytest.raises(ValueError, match="unknown scheme"):
            Stepper(net, grid, 1e-3, "rk4")


class TestSimulate:
    def test_equilibrium_stays_flat(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        result = simulate(net, grid, uniform_spec([1, 1, 1, 1]),
                          dt=1e-3, t_end=0.05, output_every=10)
        sr = result.series
        assert np.all(sr.l2 <= 1e-13)
        assert np.max(np.abs(sr.entropy)) <= 1e-13
        assert np.allclose(sr.masses, sr.masses[0])

    def test_mode1_decay_rate(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (64,))
        result = simulate(net, grid, mode1_spec(), dt=1e-3, t_end=0.25,
                          output_every=10)
        fit = fit_decay_rate(result.series.t, result.series.l2 ** 2,
                             window=(0.0, 0.2))
        target = 2 * (PI2 + 4)
        assert abs(fit.rate - target) <= 0.05 * target

    def test_conservation_long_run(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        result = simulate(net, grid, uniform_spec([2, 0, 2, 0]),
                          dt=1e-2, t_end=5.0, output_every=50)
        masses = result.series.masses
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * np.max(masses[0])

    @pytest.mark.parametrize("scheme", ["strang", "imex"])
    def test_mass_drift_at_roundoff(self, scheme):
        # the DCT path's level; propagating the mean through the dense
        # propagators drifts it by ~2e-13 over these 500 steps
        grid = Grid(Interval(1.0), (64,))
        result = simulate(four_species_network(), grid, mode1_spec(), dt=1e-3,
                          t_end=0.5, output_every=10, scheme=scheme)
        masses = result.series.masses
        assert np.all(np.abs(masses - masses[0]) <= 1e-14 * np.abs(masses[0]))

    def test_entropy_monotone(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (32,))
        result = simulate(net, grid, mode1_spec(0.05), dt=1e-3, t_end=0.3)
        assert np.all(np.diff(result.series.entropy) <= 1e-12)

    def test_imex_first_order_strang_second(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        spec = uniform_spec([2, 0, 2, 0])
        orders = {}
        for scheme in ("strang", "imex"):
            errors = []
            for dt in (1e-2, 5e-3, 2.5e-3):  # each divides t_end exactly
                result = simulate(net, grid, spec, dt=dt, t_end=0.5,
                                  output_every=int(round(0.5 / dt)), scheme=scheme)
                final = result.snapshots[-1]
                a1 = float(final.fields[0].mean())
                errors.append(abs(a1 - (1 + math.exp(-4.0 * final.t))))
            orders[scheme] = [math.log2(errors[i] / errors[i + 1])
                              for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in orders["strang"])
        assert all(0.8 <= s <= 1.2 for s in orders["imex"])

    def test_determinism(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (32,))
        r1 = simulate(net, grid, mode1_spec(), dt=1e-3, t_end=0.05)
        r2 = simulate(net, grid, mode1_spec(), dt=1e-3, t_end=0.05)
        assert np.array_equal(r1.series.l2, r2.series.l2)
        assert np.array_equal(r1.snapshots[-1].fields, r2.snapshots[-1].fields)

    def test_2d_mode_decay(self):
        net = four_species_network()
        grid = Grid(Rectangle(1.0, 1.0), (16, 16))
        signs = (1, -1, 1, -1)
        spec = InitialSpec(profiles=tuple(
            SpeciesProfile(1.0, (((1, 0), s * 0.01),)) for s in signs))
        result = simulate(net, grid, spec, dt=2e-3, t_end=0.2, output_every=5)
        fit = fit_decay_rate(result.series.t, result.series.l2 ** 2)
        target = 2 * (PI2 + 4)
        assert abs(fit.rate - target) <= 0.05 * target
        masses = result.series.masses
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * np.max(masses[0])

    def test_snapshots_recorded(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        result = simulate(net, grid, uniform_spec([1, 1, 1, 1]),
                          dt=1e-3, t_end=0.01, output_every=2, snapshot_every=2)
        times = [s.t for s in result.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.01)
        assert len(times) > 2

    def test_negative_snapshot_every_refused(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        with pytest.raises(ValueError, match="snapshot_every must be >= 0"):
            simulate(net, grid, uniform_spec([1, 1, 1, 1]), dt=1e-3, t_end=0.01,
                     output_every=2, snapshot_every=-2)

    def test_t_end_must_be_whole_steps(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        with pytest.raises(ValueError, match=r"t_end = 0\.5 .* dt = 0\.3"):
            simulate(net, grid, uniform_spec([1, 1, 1, 1]), dt=0.3, t_end=0.5)
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(net, grid, uniform_spec([1, 1, 1, 1]), dt=0.3, t_end=0.1)
        result = simulate(net, grid, uniform_spec([1, 1, 1, 1]), dt=0.1, t_end=0.3)
        assert result.series.t[-1] == pytest.approx(0.3, abs=1e-15)

    def test_one_advance_per_output_interval(self, monkeypatch):
        chunks = []
        advance = Stepper.advance

        def counted(self, state, n_steps=1):
            chunks.append(n_steps)
            return advance(self, state, n_steps)

        monkeypatch.setattr(Stepper, "advance", counted)
        net = four_species_network()
        grid = Grid(Interval(1.0), (8,))
        result = simulate(net, grid, uniform_spec([1, 1, 1, 1]), dt=1e-3,
                          t_end=0.025, output_every=10, snapshot_every=2)
        assert chunks == [10, 10, 5]
        assert result.series.t == pytest.approx([0.0, 0.01, 0.02, 0.025], abs=1e-15)
        assert [s.t for s in result.snapshots] == pytest.approx([0.0, 0.02, 0.025])

    def test_dt_omitted_is_the_shortened_default(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (16,))
        auto = simulate(net, grid, mode1_spec(), None, t_end=0.01, output_every=4)
        dt = default_dt(net, auto.equilibrium.vector, grid)
        dt = 0.01 / math.ceil(0.01 / dt)
        assert auto.dt == dt
        explicit = simulate(net, grid, mode1_spec(), dt, t_end=0.01, output_every=4)
        for name in ("t", "masses", "entropy", "l2", "l4", "linf", "fisher",
                     "reaction"):
            assert getattr(auto.series, name).tobytes() \
                == getattr(explicit.series, name).tobytes()
        assert [s.fields.tobytes() for s in auto.snapshots] \
            == [s.fields.tobytes() for s in explicit.snapshots]

    def test_one_kinetics_per_run(self, monkeypatch):
        built = []
        init = Kinetics.__init__

        def counted(self, net):
            built.append(net)
            init(self, net)

        monkeypatch.setattr(Kinetics, "__init__", counted)
        simulate(four_species_network(), Grid(Interval(1.0), (16,)), mode1_spec(),
                 dt=1e-3, t_end=0.01, output_every=2)
        assert len(built) == 1

    def test_default_dt_positive(self):
        net = four_species_network()
        grid = Grid(Interval(1.0), (32,))
        dt = default_dt(net, [1, 1, 1, 1], grid)
        assert 0 < dt < 0.1


@functools.lru_cache(maxsize=None)
def mode1_box_run(shape, n_steps, dt=1e-3):
    grid = Grid(Box((1.0,) * len(shape)), shape)
    return grid, simulate(four_species_network(), grid, mode1_spec(ndim=len(shape)),
                          dt=dt, t_end=n_steps * dt, output_every=10)


MODE1_RUNS = pytest.mark.parametrize("shape, n_steps", [((64,), 500),
                                                        ((16, 16, 16), 300),
                                                        ((8, 8, 8, 8), 300)],
                                     ids=["1d", "3d", "4d"])


class TestBoxRelaxation:
    """The mode-1 run on unit boxes in d = 1, 3, 4 against the semi-discrete
    gap of its own grid."""

    @MODE1_RUNS
    def test_masses_constant_and_entropy_monotone(self, shape, n_steps):
        _, result = mode1_box_run(shape, n_steps)
        masses = result.series.masses
        assert np.max(np.abs(masses - masses[0]) / np.abs(masses[0])) <= 1e-14
        assert np.all(np.diff(result.series.entropy) <= 0)

    @MODE1_RUNS
    def test_lp_rates_match_semi_discrete_gap(self, shape, n_steps):
        dt = 1e-3
        grid, result = mode1_box_run(shape, n_steps, dt)
        report = operator_spectral_gap(four_species_network(), [1, 1, 1, 1], grid)
        kappa = report.per_mode[0][1]  # reaction gap, the mode-0 block
        rate = grid.axis_eigenvalue(0, 1) + kappa  # mode-1 block on axis 0, all d_i = 1
        # Error budget of a fitted rate against `rate`:
        # * perturbation size: on a1 = a3 = 1 + e, a2 = a4 = 1 - e the flux
        #   (1 + e)^2 - (1 - e)^2 = 4 e is linear in e, and equal d_i keep that
        #   form, so the run solves e_t = Lap_h e - kappa e: eps = 0.01 adds
        #   no O(eps^2) term, only roundoff, orders of magnitude below tol;
        # * time: the linear diffusion and reaction commute, so the splitting
        #   adds nothing and the exact diffusion leaves Heun's O(dt^2) error.
        #   Its factor 1 + z + z^2/2, z = -kappa dt, misses e^z by |z|^3/6 per
        #   step to leading order, which shifts the rate of |h| by
        #   (kappa dt)^3 / (6 dt); for kappa dt <= 1/2 the remainder is below
        #   that term, so twice it bounds the shift.  |h|^2 doubles both.
        tol = 2 * (kappa * dt) ** 3 / (6 * dt)
        series = result.series
        for y, scale in ((series.l2 ** 2, 2), (series.l4, 1), (series.linf, 1)):
            fit = fit_decay_rate(series.t, y, window=(0.0, 0.2))
            assert abs(fit.rate - scale * rate) <= scale * tol
            # the continuum mode-1 rate pi^2 + 4 is far outside that tolerance
            assert abs(fit.rate - scale * (PI2 + kappa)) > 50 * scale * tol
