import sys

import numpy as np
import pytest

from rdbalance import ParseError, Reaction, ReactionNetwork, parse_network, \
    serialize_network

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
