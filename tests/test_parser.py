"""The literal parser against the reference route of ``tests/reference.py``,
which builds a polynomial per token: equal values, the same component
order, and the same exception type, message and position, on seeded random
literals, seeded character edits of them and every literal of the
conformance corpus, the catalog and the benchmark's gl(n) problems."""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from poissonlift import Chart, catalog_names, parse_form, parse_multivector, parse_poly
from poissonlift.errors import ParseError
from poissonlift.parser import _tokenize, is_identifier
from poissonlift.problemfile import _CATALOG, _combo, _entry_map, _scan_blocks, parse_problem

from conftest import gl_problem
from reference import reference_combo, reference_parse_poly, reference_parse_tensor, reference_tokenize

CONFORMANCE = Path(__file__).resolve().parent.parent / "docs" / "conformance"

CHARTS = [Chart("M", ("q", "p", "r")), Chart("N", ("x", "dx", "e_x", "θ"))]


def _outcome(parse, *args):
    """What ``parse(*args)`` gives: its value in a comparable form, or its
    exception's type, message and position."""
    try:
        value = parse(*args)
    except Exception as exc:  # the type is part of the outcome
        return "raises", type(exc), str(exc), getattr(exc, "position", None)
    if isinstance(value, dict):  # a bialgebra combination
        return "value", [(k, type(c), c) for k, c in value.items()]
    polys = {(): value} if hasattr(value, "_terms") else value._components
    return "value", getattr(value, "degree", None), getattr(value, "variables", None), [
        (idx, p.variables, sorted((k, type(c), c) for k, c in p._terms.items()))
        for idx, p in polys.items()]


def _agree(text: str, chart: Chart) -> None:
    variables = chart.coords
    assert _outcome(parse_poly, text, variables) == _outcome(reference_parse_poly, text, variables), text
    for degree in (None, 0, 1, 2):
        assert (_outcome(parse_form, text, chart, degree)
                == _outcome(reference_parse_tensor, text, chart, "form", degree)), (text, degree)
        assert (_outcome(parse_multivector, text, chart, degree)
                == _outcome(reference_parse_tensor, text, chart, "multivector", degree)), (text, degree)


def _random_literal(rng: random.Random, chart: Chart, prefix: str = "", degree: int = 0,
                    big: bool = False) -> str:
    """A literal over ``chart``, mostly well formed: a polynomial, or with
    ``prefix`` "d" or "e_" a tensor literal whose terms mostly carry
    ``degree`` basis factors; ``big`` adds exponents near the guard."""
    names = chart.coords
    exponents = [0, 1, 2, 3] + ([1073741824, 2147483647] * 2 if big else [])
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.5:
                factor = rng.choice(names)
                if rng.random() < 0.5:
                    factor += f"^{rng.choice(exponents)}"
            elif pick < 0.8:
                factor = str(rng.choice([0, 1, 2, 3, 12]))
                if rng.random() < 0.3:
                    factor += f"/{rng.choice([1, 2, 3, 4, 6])}"
                if rng.random() < 0.2:
                    factor += f"^{rng.choice([0, 1, 2])}"
            else:
                factor = f"({_random_literal(rng, chart)})"
                if rng.random() < 0.3:
                    factor += f"^{rng.choice([0, 1, 2])}"
            factors.append(factor)
        if prefix and rng.random() < 0.9:
            length = degree if rng.random() < 0.9 else rng.randint(0, 3)
            basis = "^".join(prefix + rng.choice(names) for _ in range(length))
            if basis:
                factors.insert(rng.randrange(len(factors) + 1), basis)
        terms.append("*".join(factors))
    text = terms[0] if rng.random() < 0.7 else rng.choice("+-") + terms[0]
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    return text


def _literal(rng: random.Random, big: bool = False) -> tuple[str, Chart]:
    chart = rng.choice(CHARTS)
    prefix = rng.choice(["", "d", "e_"])
    return _random_literal(rng, chart, prefix, rng.randint(0, 2) if prefix else 0, big), chart


_EDIT_CHARACTERS = "qprxθ0123/^*+-() _d²$."


def _edited(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        op = rng.choice(("insert", "delete", "replace")) if at < len(chars) else "insert"
        if op == "insert":
            chars.insert(at, rng.choice(_EDIT_CHARACTERS))
        elif op == "delete":
            del chars[at]
        else:
            chars[at] = rng.choice(_EDIT_CHARACTERS)
    return "".join(chars)


def test_random_literals_parse_as_the_reference_does():
    rng = random.Random(7)
    for _ in range(300):
        _agree(*_literal(rng, big=True))


@pytest.mark.parametrize("text", [
    "q^2147483647*q", "0*q^2147483647*q", "q^2147483647*0*q", "(q - q)*q^2147483647*q",
    "(q^1073741824)^2", "(q*p)^1073741824*q", "q^2147483647*(p + 1)*q", "0^0 + 2^0*q^0",
    "1/2*4/2*q", "-(q + p)^2*dq^dp + dp^dq", "dq^dq + 0*dp", "0*dq^dp + q", "q*(dq)",
])
def test_edge_literals_parse_as_the_reference_does(text):
    _agree(text, CHARTS[0])


def test_edited_literals_parse_or_fail_as_the_reference_does():
    rng = random.Random(8)
    checked = 0
    while checked < 600:
        text, chart = _literal(rng)
        text = _edited(rng, text)
        if re.search(r"\^\s*\d\d", text):
            continue  # a power of a sum that large would take both routes long
        _agree(text, chart)
        checked += 1


def _problem_literals():
    """(coordinates, value text) of every entry of the conformance corpus,
    the catalog and gl(2), gl(3) and the perturbed gl(3)."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CONFORMANCE.glob("*/*.pf"))]
    texts += [_CATALOG[name] for name in catalog_names()]
    texts += [gl_problem(2), gl_problem(3), gl_problem(3, perturb_map=True)]
    for text in texts:
        try:
            blocks = _scan_blocks(text)
            entries = {name: _entry_map(block) for name, block in blocks.items()}
        except ParseError:
            continue
        coords = entries.get("manifold", {}).get("coords", (0, "q, p"))[1]
        for block in entries.values():
            for _, value in block.values():
                yield coords, value


def test_problem_file_literals_parse_as_the_reference_does():
    seen = 0
    for coords, value in _problem_literals():
        names = tuple(name.strip() for name in coords.split(","))
        if len(set(names)) == len(names):
            _agree(value, Chart("M", names))
            seen += 1
    assert seen > 100


def _random_combo(rng: random.Random, names) -> str:
    pieces = []
    for _ in range(rng.randint(0, 4)):
        pieces.append(rng.choice(["+", "-", "", " "]))
        if rng.random() < 0.5:
            pieces.append(rng.choice(["0", "1", "2", "1/2", "3/0", "2/x", "4*"]))
        pieces.append(rng.choice(names + ("e9", "^", "(", "")))
        if rng.random() < 0.5:
            pieces.append("^" + rng.choice(names + ("2",)))
    return " ".join(pieces)


def test_combinations_read_as_the_reference_does():
    rng = random.Random(9)
    names = ("e1", "e2", "e3")
    texts = [_random_combo(rng, names) for _ in range(400)]
    texts += [_edited(rng, text) for text in texts[:200]]
    for coords, value in _problem_literals():
        texts.append(value)
    for text in texts:
        for wedge in (False, True):
            assert (_outcome(_combo, text, names, wedge)
                    == _outcome(reference_combo, text, names, wedge)), (text, wedge)


@pytest.mark.parametrize("text", ["q^2*p - 1/2", "θ_1*dθ", "x² + 3", "12²", "q^²", "a$b", ""])
def test_tokenizer_is_the_reference_copy(text):
    assert _tokens(_tokenize, text) == _tokens(reference_tokenize, text)


def _tokens(tokenize, text: str):
    try:
        return [tuple(token) for token in tokenize(text)]
    except ParseError as exc:
        return str(exc)


def test_superscript_digit_is_an_unexpected_character():
    with pytest.raises(ParseError, match=r"unexpected character '²' \(at position 2\)"):
        parse_poly("q^²", ("q",))


@pytest.mark.parametrize("name", ["q", "θ", "_q1", "x²", "v_q", "q+p", "1q", "q p", "", "²", "q-", "q.1"])
def test_a_name_is_an_identifier_exactly_when_it_is_one_token(name):
    assert is_identifier(name) == (_tokens(_tokenize, name) == [("ident", name, 0), ("end", "", len(name))])


@pytest.mark.parametrize("block, entry", [
    ("manifold", "coords: q+p, r"),
    ("manifold", "coords: x, 1q"),
    ("bialgebra", "basis: e1, e 2"),
])
def test_names_a_literal_cannot_read_are_refused_on_their_line(block, entry):
    body = {"manifold": "coords: q, p; poisson: e_q^e_p", "bialgebra": "basis: e1"}
    body[block] = entry + ("; poisson: 0" if block == "manifold" else "")
    text = "".join(f"{name} {{\n  {lines}\n}}\n" for name, lines in body.items())
    with pytest.raises(ParseError, match=r"is not an identifier") as err:
        parse_problem(text)
    assert err.value.line == (2 if block == "manifold" else 5)


def test_unicode_letters_stay_names():
    problem = parse_problem("manifold {\n  coords: θ, ω_1\n  poisson: θ*e_θ^e_ω_1\n}\n")
    assert problem.chart.coords == ("θ", "ω_1")
