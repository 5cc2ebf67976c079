"""Read and write the line-oriented ``.rdn`` reaction-network format.

::

    # four-species swap
    species A1 A2 A3 A4
    diffusion A1=1 A2=1 A3=1 A4=1
    reaction A1 + A3 <-> A2 + A4 : kf=1 kb=1

Exactly one ``species`` line and one ``diffusion`` line, then one or more
``reaction`` lines.  Reaction sides are ``+``-joined terms ``k*Name``,
``k Name`` or ``Name`` with integer k >= 1; a lone ``0`` is the empty
side.  ``#`` starts a comment.  All parse failures raise ParseError with
a 1-based line and column.
"""

from __future__ import annotations

import math
import re

from .network import Reaction, ReactionNetwork

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TERM_RE = re.compile(r"\s*(?:(\d+)\s*(?:\*\s*)?)?([A-Za-z_][A-Za-z0-9_]*)\s*\Z")
_HEAD_RE = re.compile(r"\s*(\S+)")
_TOKEN_RE = re.compile(r"\S+")
_RATE_RE = re.compile(r"(kf|kb)=(\S+)\Z")
_DIFFUSION_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S+)\Z")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}: {self.message}"


def _positive_float(text: str, what: str, line: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what}: not a number: {text!r}", line, col) from None
    if not (value > 0) or not math.isfinite(value):
        raise ParseError(f"{what}: must be strictly positive, got {text}", line, col)
    return value


def _parse_side(text: str, offset: int, species_index: dict[str, int],
                line: int) -> list[int]:
    counts = [0] * len(species_index)
    if text.strip() == "0":
        return counts
    if not text.strip():
        raise ParseError("empty reaction side (use 0)", line, offset + 1)
    pos = 0
    for piece in text.split("+"):
        col = offset + pos + 1
        m = _TERM_RE.match(piece)
        if m is None:
            raise ParseError(f"malformed term {piece.strip()!r}", line, col)
        try:
            coeff = int(m.group(1)) if m.group(1) else 1
        except ValueError:  # more digits than int() converts
            raise ParseError("coefficient has too many digits", line, col) from None
        if coeff < 1:
            raise ParseError(f"coefficient must be >= 1, got {coeff}", line, col)
        name = m.group(2)
        if name not in species_index:
            name_col = offset + pos + m.start(2) + 1
            raise ParseError(f"unknown species {name}", line, name_col)
        counts[species_index[name]] += coeff
        pos += len(piece) + 1
    return counts


def _parse_rates(text: str, offset: int, line: int) -> tuple[float, float]:
    rates: dict[str, float] = {}
    for m in _TOKEN_RE.finditer(text):
        col = offset + m.start() + 1
        token = m.group()
        km = _RATE_RE.match(token)
        if km is None:
            raise ParseError(f"expected kf=<value> or kb=<value>, got {token!r}",
                             line, col)
        key = km.group(1)
        if key in rates:
            raise ParseError(f"duplicate rate {key}", line, col)
        rates[key] = _positive_float(km.group(2), f"rate {key}", line, col)
    if "kf" not in rates or "kb" not in rates:
        raise ParseError("missing rate (need both kf= and kb=)", line, offset + 1)
    return rates["kf"], rates["kb"]


def parse_network(text: str | bytes) -> ReactionNetwork:
    """Parse ``.rdn`` text into a ReactionNetwork.

    Total over arbitrary input: every failure is a ParseError carrying the
    offending line and column, never any other exception (the checks here
    include every rule of ``Reaction`` and ``ReactionNetwork``).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    species: list[str] = []
    species_index: dict[str, int] = {}
    diffusion: dict[str, float] = {}
    reactions: list[Reaction] = []
    diffusion_line_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        head_match = _HEAD_RE.match(content)
        head = head_match.group(1)
        head_col = head_match.start(1) + 1
        rest_offset = head_match.end(1)
        rest = content[rest_offset:]

        if head == "species":
            if species:
                raise ParseError("duplicate species line", lineno, head_col)
            for m in _TOKEN_RE.finditer(rest):
                name = m.group()
                col = rest_offset + m.start() + 1
                if not _NAME_RE.match(name):
                    raise ParseError(f"invalid species name {name!r}", lineno, col)
                if name in species_index:
                    raise ParseError(f"duplicate species name {name}", lineno, col)
                species_index[name] = len(species)
                species.append(name)
            if len(species) < 2:
                raise ParseError("need at least two species", lineno, head_col)
        elif head == "diffusion":
            if not species:
                raise ParseError("species line must come first", lineno, head_col)
            if diffusion_line_seen:
                raise ParseError("duplicate diffusion line", lineno, head_col)
            diffusion_line_seen = True
            for m in _TOKEN_RE.finditer(rest):
                col = rest_offset + m.start() + 1
                dm = _DIFFUSION_RE.match(m.group())
                if dm is None:
                    raise ParseError(f"expected Name=<value>, got {m.group()!r}",
                                     lineno, col)
                name = dm.group(1)
                if name not in species_index:
                    raise ParseError(f"unknown species {name}", lineno, col)
                if name in diffusion:
                    raise ParseError(f"duplicate diffusion for {name}", lineno, col)
                diffusion[name] = _positive_float(dm.group(2), f"diffusion {name}",
                                                  lineno, col)
        elif head == "reaction":
            if not species:
                raise ParseError("species line must come first", lineno, head_col)
            arrow = rest.find("<->")
            if arrow < 0:
                raise ParseError("missing <-> arrow", lineno, rest_offset + 1)
            colon = rest.find(":", arrow + 3)
            if colon < 0:
                raise ParseError("missing rates (expected ': kf=... kb=...')",
                                 lineno, rest_offset + len(rest.rstrip()) + 1)
            alpha = _parse_side(rest[:arrow], rest_offset, species_index, lineno)
            beta = _parse_side(rest[arrow + 3:colon], rest_offset + arrow + 3,
                               species_index, lineno)
            kf, kb = _parse_rates(rest[colon + 1:], rest_offset + colon + 1, lineno)
            reactions.append(Reaction(tuple(alpha), tuple(beta), kf, kb))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, head_col)

    if not species:
        raise ParseError("missing species line", max(1, text.count("\n") + 1))
    if not diffusion_line_seen:
        raise ParseError("missing diffusion line", text.count("\n") + 1)
    missing = [s for s in species if s not in diffusion]
    if missing:
        raise ParseError(f"missing diffusion for {missing[0]}", text.count("\n") + 1)
    if not reactions:
        raise ParseError("need at least one reaction line", text.count("\n") + 1)
    return ReactionNetwork(tuple(species), tuple(reactions),
                           tuple(diffusion[s] for s in species))


def _format_side(counts, names) -> str:
    terms = []
    for count, name in zip(counts, names):
        if count == 1:
            terms.append(name)
        elif count > 1:
            terms.append(f"{count} {name}")
    return " + ".join(terms) if terms else "0"


def serialize_network(net: ReactionNetwork) -> str:
    """Canonical ``.rdn`` text; parse(serialize(net)) equals net exactly."""
    lines = ["species " + " ".join(net.species)]
    lines.append("diffusion " + " ".join(
        f"{name}={d!r}" for name, d in zip(net.species, net.diffusion)))
    for r in net.reactions:
        lines.append(
            f"reaction {_format_side(r.alpha, net.species)} <-> "
            f"{_format_side(r.beta, net.species)} : kf={r.kf!r} kb={r.kb!r}")
    return "\n".join(lines) + "\n"
