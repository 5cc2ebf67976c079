import numpy as np
import pytest

from rdbalance import Grid, Reaction, ReactionNetwork


def four_species_network(d=(1.0, 1.0, 1.0, 1.0), kf=1.0, kb=1.0) -> ReactionNetwork:
    return ReactionNetwork(
        species=("A1", "A2", "A3", "A4"),
        reactions=(Reaction((1, 0, 1, 0), (0, 1, 0, 1), kf, kb),),
        diffusion=tuple(d),
    )


def exchange_network(kf=2.0, kb=1.0) -> ReactionNetwork:
    return ReactionNetwork(
        species=("A1", "A2"),
        reactions=(Reaction((1, 0), (0, 1), kf, kb),),
        diffusion=(1.0, 1.0),
    )


def triangle_network() -> ReactionNetwork:
    """Cyclic A1 <-> A2 <-> A3 <-> A1 with an unbalanced cycle (no detailed
    balance: the rate products around the loop differ)."""
    return ReactionNetwork(
        species=("A1", "A2", "A3"),
        reactions=(
            Reaction((1, 0, 0), (0, 1, 0), 1.0, 1.0),
            Reaction((0, 1, 0), (0, 0, 1), 1.0, 1.0),
            Reaction((0, 0, 1), (1, 0, 0), 2.0, 1.0),
        ),
        diffusion=(1.0, 1.0, 1.0),
    )


def random_quadratic_side(rng, n_species) -> tuple[int, ...]:
    side = [0] * n_species
    for _ in range(int(rng.integers(0, 3))):
        side[int(rng.integers(0, n_species))] += 1
    return tuple(side)


def random_admissible_network(rng, max_species=8, max_reactions=6) -> ReactionNetwork:
    n = int(rng.integers(2, max_species + 1))
    n_reactions = int(rng.integers(1, max_reactions + 1))
    reactions = []
    while len(reactions) < n_reactions:
        alpha = random_quadratic_side(rng, n)
        beta = random_quadratic_side(rng, n)
        if alpha == beta:
            continue
        reactions.append(Reaction(alpha, beta,
                                  float(rng.uniform(0.2, 5.0)),
                                  float(rng.uniform(0.2, 5.0))))
    return ReactionNetwork(
        species=tuple(f"A{i + 1}" for i in range(n)),
        reactions=tuple(reactions),
        diffusion=tuple(float(d) for d in rng.uniform(0.1, 10.0, size=n)),
    )


def random_balanced_network(rng, max_species=8, max_reactions=6):
    """Admissible network built to admit a detailed-balance equilibrium:
    pick a positive state and back out the backward rates."""
    net = random_admissible_network(rng, max_species, max_reactions)
    a_star = rng.uniform(0.3, 3.0, size=net.n_species)
    reactions = []
    for r in net.reactions:
        forward = r.kf * np.prod(a_star ** np.array(r.alpha))
        backward_monomial = np.prod(a_star ** np.array(r.beta))
        reactions.append(Reaction(r.alpha, r.beta, r.kf,
                                  float(forward / backward_monomial)))
    return ReactionNetwork(net.species, tuple(reactions), net.diffusion), a_star


def build_laplacian(grid: Grid) -> "NeumannLaplacian":
    return NeumannLaplacian(grid)


class NeumannLaplacian:
    """Second-order cell-centered Laplacian with mirror ghost cells: the
    stencil oracle the exact diffusion substep is checked against."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.shape:
            raise ValueError(f"field shape {u.shape} does not match the grid")
        out = np.zeros_like(u)
        for axis, h in enumerate(self.grid.spacing):
            padded = np.concatenate([np.take(u, [0], axis=axis), u,
                                     np.take(u, [-1], axis=axis)], axis=axis)
            n = u.shape[axis]
            out += (np.take(padded, range(0, n), axis=axis)
                    - 2.0 * u
                    + np.take(padded, range(2, n + 2), axis=axis)) / (h * h)
        return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
