import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdbalance import ParseError, Reaction, ReactionNetwork, parse_network, \
    serialize_network, validate_network

from conftest import four_species_network, triangle_network

FOUR_SPECIES_TEXT = """\
# canonical four-species swap
species A1 A2 A3 A4
diffusion A1=1 A2=1 A3=1 A4=1
reaction A1 + A3 <-> A2 + A4 : kf=1 kb=1
"""


def test_parse_four_species():
    net = parse_network(FOUR_SPECIES_TEXT)
    assert net.species == ("A1", "A2", "A3", "A4")
    assert net.reactions[0].alpha == (1, 0, 1, 0)
    assert net.reactions[0].beta == (0, 1, 0, 1)
    assert net.reactions[0].kf == 1.0 and net.reactions[0].kb == 1.0
    assert net.diffusion == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("term", ["2 A1", "2*A1", "2 * A1"])
def test_parse_coefficient_forms(term):
    net = parse_network(
        f"species A1 A2\ndiffusion A1=1 A2=2\nreaction {term} <-> A2 : kf=1 kb=3\n")
    assert net.reactions[0].alpha == (2, 0)
    assert net.reactions[0].beta == (0, 1)
    assert net.reactions[0].kb == 3.0


def test_parse_empty_side():
    net = parse_network(
        "species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 + A2 <-> 0 : kf=1 kb=1\n")
    assert net.reactions[0].beta == (0, 0)


def test_parse_repeated_term_accumulates():
    net = parse_network(
        "species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 + A1 <-> A2 : kf=1 kb=1\n")
    assert net.reactions[0].alpha == (2, 0)


def test_unknown_species_has_location():
    text = "species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A9 : kf=1 kb=1\n"
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert "unknown species A9" in str(err.value)
    assert err.value.line == 3
    assert err.value.col == text.splitlines()[2].index("A9") + 1


@pytest.mark.parametrize("text,needle", [
    ("species A1 A2\nspecies A1 A2\n", "duplicate species line"),
    ("species A1 A1\n", "duplicate species name"),
    ("diffusion A1=1\n", "species line must come first"),
    ("species A1 A2\ndiffusion A1=1 A2=0\n", "strictly positive"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A2 : kf=1\n",
     "missing rate"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A2 : kf=1 kb=-2\n",
     "strictly positive"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 -> A2 : kf=1 kb=1\n",
     "missing <-> arrow"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A2 kf=1 kb=1\n",
     "missing rates"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction 0*A1 <-> A2 : kf=1 kb=1\n",
     "coefficient must be >= 1"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> 0 + A2 : kf=1 kb=1\n",
     "malformed term '0'"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction <-> A2 : kf=1 kb=1\n",
     r"empty reaction side \(use 0\)"),
    ("species A1 A2\ndiffusion A1=1 A2=1\nreaction A1 <-> A2 : kf=1 kb=1 kf=2\n",
     "duplicate rate kf"),
    ("species A1 A2\ndiffusion A1=1 A2=1 A1=2\n", "duplicate diffusion for A1"),
    ("species A1 A2\ndiffusion A1=1 A2=1\n", "need at least one reaction"),
    ("species A1 A2\nreaction A1 <-> A2 : kf=1 kb=1\n", "missing diffusion"),
    ("bogus line\n", "unknown directive"),
    ("", "missing species line"),
])
def test_parse_errors(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_network(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
def test_coefficient_past_the_int_digit_limit_has_location():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    text = f"species A1 A2\ndiffusion A1=1 A2=1\nreaction {digits} A1 <-> A2 : kf=1 kb=1\n"
    with pytest.raises(ParseError, match="coefficient has too many digits") as err:
        parse_network(text)
    assert (err.value.line, err.value.col) == (3, 1 + len("reaction"))


def test_comments_and_blank_lines_ignored():
    net = parse_network(
        "\n# header\nspecies A1 A2  # inline\n\ndiffusion A1=1 A2=1\n"
        "reaction A1 <-> A2 : kf=1 kb=1  # rates\n\n")
    assert net.species == ("A1", "A2")


@pytest.mark.parametrize("net", [
    four_species_network(d=(1.0, 2.5, 0.3, 4.0), kf=1.25, kb=0.75),
    triangle_network(),
    ReactionNetwork(("X", "Y_2"),
                    (Reaction((2, 0), (0, 1), 1e-3, 3.0),
                     Reaction((1, 1), (0, 0), 0.5, 2.0)),
                    (0.1, 7.0)),
])
def test_round_trip(net):
    assert parse_network(serialize_network(net)) == net


def test_serialize_forms():
    text = serialize_network(
        ReactionNetwork(("A1", "A2"),
                        (Reaction((2, 0), (0, 0), 1.0, 1.0),),
                        (1.0, 1.0)))
    assert "2 A1" in text
    assert "<-> 0 :" in text


def test_fuzz_random_bytes_total(rng):
    for _ in range(2000):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 120))).astype(np.uint8)
        try:
            parse_network(bytes(blob.tobytes()))
        except ParseError:
            pass


def test_fuzz_mutated_text(rng):
    lines = FOUR_SPECIES_TEXT.splitlines()
    alphabet = "specis difreaction A1234<->=+:kfb.e- 0*\n"
    for _ in range(2000):
        chosen = [lines[int(rng.integers(0, len(lines)))]
                  for _ in range(int(rng.integers(0, 6)))]
        noise = "".join(alphabet[int(rng.integers(0, len(alphabet)))]
                        for _ in range(int(rng.integers(0, 40))))
        text = "\n".join(chosen) + noise
        try:
            parse_network(text)
        except ParseError:
            pass


PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# text in the format's shape: a valid head or none, then lines whole, a
# directive and tokens, or reaction-like, so that draws reach every check
HEADS = st.sampled_from(["", "species A1 A2 A3 A4\n",
                         "species A1 A2 A3 A4\ndiffusion A1=1 A2=1 A3=1 A4=1\n"])
TOKENS = st.lists(st.sampled_from(
    [" ", "\t", "\r", "#", "A1", "A2", "B_7", "0", "2", "+", "*", "<->", ":",
     "kf=", "=", "1", "-2", "nan", "inf"]), max_size=12).map("".join)
REACTION_LIKE = r"reaction [0-9A*+ ]{0,9}(<->)?[0-9A*+ ]{0,9}:?( ?k[fbx]=[-0-9.e]{0,4}){0,3}"
LINES = st.one_of(
    st.sampled_from(FOUR_SPECIES_TEXT.splitlines()),
    st.tuples(st.sampled_from(["species", "diffusion", "reaction", ""]), TOKENS).map(" ".join),
    st.from_regex(REACTION_LIKE, fullmatch=True))
TEXTS = st.one_of(st.text(), st.builds(lambda head, lines: head + "\n".join(lines),
                                       HEADS, st.lists(LINES, max_size=3)))


@PROPERTY
@given(text=TEXTS)
def test_parse_network_is_total_with_a_location(text):
    try:
        parse_network(text)
    except ParseError as err:
        assert 1 <= err.line <= len(text.splitlines()) + 1
        assert err.col >= 1


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def admissible_networks(draw):
    """Distinct names, positive finite rates and diffusion, and reactions with
    sides of order at most 2 and alpha != beta (``validate_network`` ok)."""
    species = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
                            min_size=2, max_size=6, unique=True))

    def side(indices):
        return tuple(indices.count(i) for i in range(len(species)))

    slots = st.lists(st.integers(0, len(species) - 1), max_size=2).map(side)
    reactions = []
    for _ in range(draw(st.integers(1, 4))):
        alpha = draw(slots)
        beta = draw(slots.filter(lambda b: b != alpha))
        reactions.append(Reaction(alpha, beta, draw(POSITIVE), draw(POSITIVE)))
    diffusion = draw(st.lists(POSITIVE, min_size=len(species), max_size=len(species)))
    return ReactionNetwork(tuple(species), tuple(reactions), tuple(diffusion))


@settings(PROPERTY, max_examples=100)
@given(net=admissible_networks())
def test_round_trip_of_random_admissible_networks(net):
    assert validate_network(net).ok
    assert parse_network(serialize_network(net)) == net
