"""Problem files, catalog entries and the command-line driver."""

from __future__ import annotations

import argparse
import contextlib
import copy
import decimal
import gc
import io
import json
import math
import random
import re
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poissonlift import catalog, catalog_names, emit_reports, parse_problem, parse_reports
from poissonlift import LieBialgebra, Polynomial, SamplePlan, chart, checks, cli, poisson, reduction, tangent
from poissonlift.checks import CHECKS, NAMES
from poissonlift.cli import COMMANDS, _load_problem, main, run_checks
from poissonlift.errors import ParseError, UnknownCatalogError
from poissonlift.problemfile import _SCHEMA, _Block, _entry_map

from conftest import CUBIC_EDITS, QUADRATIC, count_calls, gl_problem, run_child
from reference import regex_key_holes

COUNTEREXAMPLE = """
manifold {
  coords: q, p
  poisson: e_q^e_p
}
bialgebra {
  basis: e1
}
pgmap {
  e1 = p*dq
}
"""

# A problem whose oracle block sets every value away from its default.
OWN_ORACLE = """
manifold { coords: q, p; poisson: p*e_q^e_p }
oracle { samples: 7; seed: 12; box: -1/2, 3 }
"""


class TestProblemParsing:
    def test_minimal_poisson(self):
        problem = parse_problem("manifold { coords: q, p\n poisson: e_q^e_p }")
        assert problem.chart.coords == ("q", "p")
        assert problem.poisson is not None
        assert problem.poisson.jacobi_verified

    def test_symplectic_with_constant_inverse(self):
        problem = parse_problem("manifold { coords: q, p\n symplectic: dq^dp }")
        pi = problem.poisson
        assert pi.jacobi_verified

    def test_rejects_both_structures(self):
        text = "manifold { coords: q, p\n poisson: e_q^e_p\n symplectic: dq^dp }"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_rejects_unclosed_block(self):
        with pytest.raises(ParseError) as err:
            parse_problem("manifold {\n coords: q, p\n poisson: e_q^e_p\n")
        assert err.value.line == 1

    def test_error_carries_line_number(self):
        text = "manifold {\n  coords: q, p\n  poisson: e_q^e_r\n}"
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == 3

    def test_momentum_requires_bialgebra(self):
        text = "manifold { coords: q, p\n poisson: e_q^e_p }\nmomentum { e1 = p }"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_cobracket_with_juxtaposed_coefficient(self):
        text = """
manifold { coords: q, p
  poisson: p*e_q^e_p }
bialgebra {
  basis: e1, e2
  bracket { [e1,e2] = e2 }
  cocycle { d(e2) = 2 e1^e2 }
}
"""
        problem = parse_problem(text)
        assert problem.bialgebra.cobracket_row(1) == {(0, 1): Fraction(2)}

    def test_one_line_blocks(self):
        text = "manifold { coords: q, p; poisson: p*e_q^e_p }\n" \
               "bialgebra { basis: e1, e2; bracket { [e1,e2] = e2 } }"
        problem = parse_problem(text)
        assert problem.bialgebra.basis == ("e1", "e2")
        assert problem.bialgebra.bracket(0, 1) == {1: 1}

    @pytest.mark.parametrize(
        "text, line",
        [("manifold { coords: q, p\n poisson: 0\n frame { } }", 3),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1\n"
          "  bracket { [e1,e1] = 0\n    extra { } } }", 4)],
        ids=["in-manifold", "in-bracket"],
    )
    def test_unknown_child_block(self, text, line):
        with pytest.raises(ParseError, match="unknown block") as err:
            parse_problem(text)
        assert err.value.line == line

    def test_oracle_block(self):
        text = """
manifold { coords: q, p
  poisson: 0 }
oracle { samples: 7
  seed: 12
  box: -1/2, 3 }
"""
        problem = parse_problem(text)
        assert problem.plan.count == 7
        assert problem.plan.seed == 12
        assert problem.plan.box == (Fraction(-1, 2), Fraction(3))

    @pytest.mark.parametrize(
        "text, line, message",
        [("manifold { coords: q, p; poisson: e_q^e_p\n inverse: e_q^e_p }", 2,
          "'inverse' entry requires a 'symplectic' entry"),
         ("manifold { coords: q, p; poisson: e_q^e_p }\nlevelset { params: s; map: s, 0 }", 2,
          "levelset block requires a momentum block"),
         ("manifold { coords: q, p; poisson: e_q^e_p }\nbialgebra { basis: e1 }\n"
          "action { e1 = e_q }", 3, "action block requires a 'symplectic' entry"),
         ("manifold { coords: q, p; poisson: p*e_q^e_p }\nbialgebra { basis: e1, e2\n"
          "  bracket { [e1,e2] = e2\n  [ e1 , e2 ] = e2 } }", 4, "duplicate entry '[ e1 , e2 ]'"),
         ("manifold { coords: q, p; poisson: p*e_q^e_p }\nbialgebra { basis: e1, e2\n"
          "  cocycle { d(e2) = e1^e2\n  d(e2) = 0 } }", 4, "duplicate entry 'd(e2)'"),
         ("manifold { coords: q, q; poisson: 0 }", 1, "coordinate names must be distinct"),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e1 }", 2,
          "basis names must be distinct"),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e2\n"
          "  bracket { [e1,e2] = e2; [e2,e1] = e2 } }", 2, "violate antisymmetry"),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1\n"
          "  bracket { [e1,e1] = e1 } }", 2, "must vanish"),
         ("manifold { coords: q,, p; poisson: 0 }", 1, "empty entry in 'q,, p'"),
         ("manifold { coords: v_a; poisson: 0 }", 1, "already carries the fiber prefix 'v_'"),
         ("manifold { coords: v_x, x; poisson: 0 }", 1, "already carries the fiber prefix 'v_'"),
         ("manifold { coords: dot_x, x; poisson: 0 }", 1, "must be distinct in TT*M"),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e2\n"
          "  bracket { [e1,e2] = e1 e2 } }", 3, "expected '+' or '-' between terms"),
         ("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e2\n"
          "  cocycle { d(e1) = e1^e2 e1^e2 } }", 3, "expected '+' or '-' between terms"),
         *[("manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e2\n"
            f"  {entry} }}", 3, message) for entry, message in [
             ("bracket { [e1,e2] = e3 }", "unknown basis symbol 'e3'"),
             ("cocycle { d(e2) = e1 e2 }", "expected '^' between basis symbols"),
             ("cocycle { d(e2) = e1^ }", "expected a basis symbol after '^'"),
             ("bracket { [e1,e2] = e2 - }", "dangling sign"),
             ("bracket { [e1,e2] = 1/ e2 }", "expected integer denominator")]],
         # the oracle is exact and takes no step
         ("manifold { coords: q, p; poisson: 0 }\noracle { seed: 3\n  fd_step: 1/1000 }", 3,
          "unknown key 'fd_step' in 'oracle'")],
        ids=["inverse-without-symplectic", "levelset-without-momentum", "action-without-symplectic",
             "repeated-bracket", "repeated-cocycle", "duplicate-coords", "duplicate-basis", "antisymmetry",
             "diagonal-bracket", "empty-coordinate", "fiber-prefix", "fiber-prefix-before-collision",
             "bundle-collision", "bracket-terms-without-sign", "cocycle-terms-without-sign",
             "unknown-basis-symbol", "cocycle-without-wedge", "wedge-without-second-symbol",
             "dangling-sign", "denominator-not-an-integer", "oracle-fd-step"],
    )
    def test_rule_errors_carry_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_problem(text)
        assert err.value.line == line

    def test_combinations_with_zero_terms_and_fractions(self):
        text = "manifold { coords: q, p; poisson: 0 }\nbialgebra { basis: e1, e2\n" \
               "  bracket { [e1,e2] = 0 + 1*e2 }\n  cocycle { d(e2) = 2/2 e1^e2; d(e1) = 0 } }"
        bialgebra = parse_problem(text).bialgebra
        assert bialgebra.bracket(0, 1) == {1: 1}
        assert bialgebra.cobracket_row(1) == {(0, 1): 1}
        assert type(bialgebra.cobracket_row(1)[(0, 1)]) is int
        assert bialgebra.cobracket_row(0) == {}

    def test_bracket_restated_in_the_other_order(self):
        text = "manifold { coords: q, p; poisson: p*e_q^e_p }\n" \
               "bialgebra { basis: e1, e2; bracket { [e1,e2] = e2; [e2,e1] = -e2 } }"
        assert parse_problem(text).bialgebra.bracket(0, 1) == {1: 1}

    @pytest.mark.parametrize(
        "key, text",
        [("samples", "0"), ("samples", "x"), ("seed", "1/2"), ("box", "2, -2"), ("box", "1/0, 2"),
         ("box", "-1,,1")],
    )
    def test_flags_and_oracle_keys_reject_alike(self, capsys, key, text):
        with pytest.raises(ParseError):
            parse_problem(f"manifold {{ coords: q, p; poisson: 0 }}\noracle {{ {key}: {text} }}")
        flag = "--" + key
        assert main(["check-poisson", "so3-coadjoint", f"{flag}={text}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad {flag} ")


_BLANKS = ("", " ", "  ", "\t", "\u00a0")


def _key_spellings(rng: random.Random, pattern: str, count: int) -> list[str]:
    """Spellings of a pattern key: blanks (U+00A0 among them) around its
    holes, inner blanks, empty holes and commas in them, and one opening or
    closing character dropped or doubled, or one comma put in anywhere."""
    holes = ("e1", "e2", "", "e 1", "e\u00a02", "e1,e2", ",")
    head, *separators, tail = pattern.split("{}")
    spellings = []
    for _ in range(count):
        text = head
        for literal in (*separators, tail):
            text += rng.choice(_BLANKS) + rng.choice(holes) + rng.choice(_BLANKS) + literal
        edit = rng.randrange(6)
        if edit == 1:
            text = text[1:]
        elif edit == 2:
            text = text[:-1]
        elif edit == 3:
            text = text[:1] + text
        elif edit == 4:
            text += text[-1:]
        elif edit == 5:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + "," + text[cut:]
        spellings.append(text)
    return spellings


@pytest.mark.parametrize("block", ["bracket", "cocycle", "pgmap"])
def test_key_holes_match_the_regex_reference(block):
    # the loader splits a pattern key with str.partition; the regular
    # expression it once compiled per block is the reference
    (pattern,) = _SCHEMA[block].keys
    rng = random.Random(1507)
    outcomes = set()
    for written in _key_spellings(rng, pattern, 300):
        line = rng.choice(_BLANKS) + written + rng.choice(_BLANKS) + "= e1"
        expected = regex_key_holes(pattern, written.strip())
        outcomes.add(expected is None)
        if expected is None:
            example = pattern.format("e1", "e2")
            with pytest.raises(ParseError) as err:
                _entry_map(_Block(block, 4, [(4, line)]))
            assert str(err.value) == f"{block} entries look like '{example} = ...': {line!r} (line 4)"
        else:
            assert _entry_map(_Block(block, 4, [(4, line)])) == {expected: (4, "e1")}, line
    # the pgmap key '{}' takes any text; the others meet both outcomes
    assert outcomes == ({False} if block == "pgmap" else {False, True})


class TestSchema:
    """The schema table is read in an order that puts companions first, and
    docs/problem-file-format.md names every block, key and companion rule of
    it, with no key the table lacks."""

    DOC = (Path(__file__).resolve().parent.parent / "docs" / "problem-file-format.md").read_text()

    def _table_keys(self):
        rows = [line for line in self.DOC.splitlines() if line.startswith("|")]
        cells = [row.split("|")[1].strip() for row in rows]
        return {cell.strip("`").rstrip(":") for cell in cells if cell.startswith("`")}

    def test_every_block_is_named(self):
        for block in _SCHEMA:
            assert f"`{block}`" in self.DOC, block

    def test_doc_tables_match_the_named_keys(self):
        named = {key for spec in _SCHEMA.values() if spec.sep == ":" for key in spec.keys}
        assert self._table_keys() == named

    def test_companions_come_first(self):
        order = list(_SCHEMA)
        for block, spec in _SCHEMA.items():
            for companion in spec.requires:
                assert order.index(companion.partition(".")[0]) < order.index(block), block

    def test_every_companion_rule_is_listed(self):
        section = self.DOC.split("## Companion rules")[1].split("\n## ")[0]
        bullets = [" ".join(item.split()) for item in section.split("\n* ")[1:]]
        rules = [(f"`{block}`", companion) for block, spec in _SCHEMA.items()
                 for companion in spec.requires]
        rules += [(f"`{key}:`", companion) for spec in _SCHEMA.values()
                  for key, rule in spec.keys.items() for companion in rule.requires]
        for subject, companion in rules:
            block, _, key = companion.partition(".")
            wanted = f"`{key}:`" if key else f"`{block}`"
            assert any(subject in item and wanted in item for item in bullets), (subject, companion)


_CONFORMANCE = Path(__file__).resolve().parent.parent / "docs" / "conformance"

# the stem of every invalid conformance file -> a fragment of its own refusal,
# so that no file is refused by an earlier rule than the one it is named for
_INVALID = {
    "action-without-symplectic": "action block requires a 'symplectic' entry",
    "bad-bracket-entry": "bracket entries look like '[e1,e2] = ...': 'e1 * e2 = e2'",
    "bracket-diagonal": "[e_0, e_0] must vanish (antisymmetry)",
    "bracket-key-unclosed": "bracket entries look like '[e1,e2] = ...': '[e1,e2 = e2'",
    "bracket-not-antisymmetric": "violate antisymmetry",
    "bracket-terms-without-sign": "expected '+' or '-' between terms in 'e1 e2'",
    "cocycle-key-no-parens": "cocycle entries look like 'd(e1) = ...'",
    "cocycle-terms-without-sign": "expected '+' or '-' between terms in 'e1^e2 e1^e2'",
    "coords-bundle-collision": "coordinate names must be distinct in T*M",
    "coords-empty-entry": "empty entry in 'q,, p'",
    "coords-leading-digit": "'1q' is not an identifier",
    "coords-not-identifier": "'q+p' is not an identifier",
    "degenerate-symplectic": "two-form is degenerate",
    "duplicate-basis": "basis names must be distinct",
    "duplicate-block": "duplicate block 'manifold'",
    "duplicate-bracket-pair": "duplicate entry '[e1, e2]' in 'bracket'",
    "duplicate-cocycle-entry": "duplicate entry 'd(e2)' in 'cocycle'",
    "duplicate-coords": "coordinate names must be distinct in M",
    "exponent-too-large": "exponent must be below 2147483648",
    "inverse-without-symplectic": "'inverse' entry requires a 'symplectic' entry",
    "levelset-map-too-short": "levelset map needs 2 components, got 1",
    "levelset-off-zero-level": "J does not vanish on the parametrized set",
    "levelset-without-momentum": "levelset block requires a momentum block",
    "manifold-unknown-key": "unknown key 'sympletic' in 'manifold'",
    "manifold-without-coords": "manifold block needs 'coords'",
    "mixed-structures": "declare at most one of poisson/symplectic",
    "momentum-without-bialgebra": "momentum block requires a bialgebra block",
    "non-closed-symplectic": "two-form is not closed: d(omega) = da^db^dc",
    "oracle-box-empty": "empty interval",
    "oracle-box-zero-denominator": "bad oracle box '1/0, 2': zero denominator",
    "oracle-samples-not-integer": "bad oracle samples 'x'",
    "oracle-samples-zero": "bad oracle samples '0': must be positive",
    "oracle-seed-not-integer": "bad oracle seed '1/2'",
    "oracle-unknown-key": "unknown key 'sampels' in 'oracle'",
    "pgmap-missing-entry": "pgmap block misses entries for ['e2']",
    "unclosed-block": "block 'manifold' is not closed",
    "unknown-block": "unknown block 'momentm'",
    "unknown-symbol": "'e_r' is not a basis element of this chart",
}


class TestConformanceCorpus:
    @pytest.mark.parametrize(
        "path", sorted(_CONFORMANCE.glob("valid/*.pf")), ids=lambda p: p.stem
    )
    def test_valid_files_load(self, path):
        problem = parse_problem(path.read_text(), name=path.name)
        assert problem.poisson.jacobi_verified

    @pytest.mark.parametrize(
        "path", sorted(_CONFORMANCE.glob("invalid/*.pf")), ids=lambda p: p.stem
    )
    def test_invalid_files_rejected(self, path):
        with pytest.raises(ParseError) as err:
            parse_problem(path.read_text(), name=path.name)
        assert err.value.line is not None
        assert _INVALID[path.stem] in str(err.value)

    def test_every_invalid_file_names_its_refusal(self):
        assert sorted(path.stem for path in _CONFORMANCE.glob("invalid/*.pf")) == sorted(_INVALID)


@pytest.mark.parametrize("path", sorted(_CONFORMANCE.glob("valid/*.pf")), ids=lambda p: p.stem)
@pytest.mark.parametrize("variant", ["bom", "crlf"])
def test_byte_order_mark_and_crlf_read_as_the_original(tmp_path, capsys, path, variant):
    # some editors start a UTF-8 file with U+FEFF, which the scanner once read
    # as part of the first block name
    code = main(["all", str(path)])
    expected = capsys.readouterr().out
    data = path.read_bytes()
    copy = tmp_path / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + data if variant == "bom" else data.replace(b"\n", b"\r\n"))
    assert main(["all", str(copy)]) == code
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_a_file_that_is_not_utf8_exits_2_with_the_decoders_message(tmp_path, capsys, bom):
    # the byte position counts from after a byte-order mark
    path = tmp_path / "latin1.pf"
    path.write_bytes(bom + b"manifold {\n coords: q, p\xff\n}\n")
    assert main(["all", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte\n")


_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
from poissonlift import cli
loaded = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["all", path]) for path in sys.argv[1:]]
print(json.dumps([codes, sorted(set(sys.modules) - loaded)]))
"""


def test_all_on_a_file_imports_nothing_beyond_the_cli():
    # reading the file through the utf-8-sig codec imported encodings.utf_8_sig
    paths = [str(path) for path in sorted(_CONFORMANCE.glob("valid/*.pf"))]
    assert json.loads(run_child(_IMPORTS_SCRIPT, *paths)) == [[0] * len(paths), []]


def _load(source: str):
    """A catalog entry, or a conformance file named by its path under docs/conformance."""
    if source in catalog_names():
        return catalog(source)
    return parse_problem((_CONFORMANCE / source).read_text(encoding="utf-8"), name=source)


_SYMPLECTIC = [source for source in (*catalog_names(), *(f"valid/{path.name}" for path in
                                                         sorted(_CONFORMANCE.glob("valid/*.pf"))))
               if _load(source).symplectic is not None]


_GL = {"gl2": gl_problem(2), "gl2-perturbed": gl_problem(2, perturb_map=True), "gl3": gl_problem(3),
       "gl3-perturbed": gl_problem(3, perturb_map=True), "gl3-non-poisson": gl_problem(3, non_poisson=True),
       "non-symplectic-action": "manifold { coords: q, p; symplectic: dq^dp }\n"
                                "bialgebra { basis: e1 }\naction { e1 = q*e_q }\n"}


@pytest.mark.parametrize("source", [*catalog_names(), *(f"valid/{path.name}" for path in
                                                        sorted(_CONFORMANCE.glob("valid/*.pf"))), *_GL])
def test_every_name_gives_a_report_or_a_parse_error(source):
    # tangent-generator-fields on an uncertified map and
    # cotangent-momentum-relation on an action that does not preserve omega
    # gave no report, and the command line printed "0/0 checks passed", exit 0
    problem = parse_problem(_GL[source]) if source in _GL else _load(source)
    ids = {row.check_id for rows in CHECKS.values() for row in rows}
    for name in NAMES:
        try:
            reports = run_checks(problem, name)
        except ParseError:  # the problem lacks a block every row of the name reads
            continue
        assert len(reports) == 1 if name in ids else reports, name


@pytest.mark.parametrize("source", _SYMPLECTIC)
def test_symplectic_problem_reads_the_forms_own_pi(monkeypatch, source):
    # pi = omega^-1 is the form's own PoissonStructure, so the Jacobi verdict
    # that check-poisson computes is the one the form holds
    problem = _load(source)
    assert problem.poisson is problem.symplectic.poisson
    calls = count_calls(monkeypatch, poisson, "jacobi_check")
    run_checks(problem, "check-poisson")
    assert len(calls) == 1
    assert problem.symplectic.poisson.jacobi_verified
    assert len(calls) == 1


def test_check_poisson_reads_the_forms_own_d_omega(monkeypatch):
    # the form takes d(omega) once, to refuse one that is not closed, and
    # the symplectic-closed row reports that value instead of taking it again
    problem = catalog("canonical-r2-rotation")
    calls = count_calls(monkeypatch, chart, "exterior_derivative")
    reports = run_checks(problem, "check-poisson")
    assert [(rep.check_id, rep.verdict) for rep in reports] == [
        ("symplectic-closed", "pass"), ("poisson-jacobi", "pass")]
    assert calls == []


def _seeded_edits(seed: int, count: int):
    """``count`` texts, each a valid/ file with 1-3 of its pieces (a word, a
    run of whitespace or one other character) inserted, deleted or replaced
    by a piece drawn from the whole valid/ corpus."""
    rng = random.Random(seed)
    files = [re.findall(r"\w+|\s+|\S", path.read_text(encoding="utf-8"))
             for path in sorted(_CONFORMANCE.glob("valid/*.pf"))]
    pool = sorted({piece for pieces in files for piece in pieces})
    for _ in range(count):
        pieces = list(rng.choice(files))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(pieces) + 1)
            op = rng.choice(("insert", "delete", "replace")) if at < len(pieces) else "insert"
            if op == "insert":
                pieces.insert(at, rng.choice(pool))
            elif op == "delete":
                del pieces[at]
            else:
                pieces[at] = rng.choice(pool)
        yield "".join(pieces)


def _alarm(signum, frame):
    raise TimeoutError("no exit code within 5 s")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
def test_seeded_edits_end_in_an_exit_code(tmp_path):
    # a traceback or a hang on an edited problem file fails here
    path = tmp_path / "edited.pf"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for index, text in enumerate(_seeded_edits(seed=1, count=600)):
            path.write_text(text, encoding="utf-8")
            signal.alarm(5)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = main(["all", str(path)])
            finally:
                signal.alarm(0)
            assert code in (0, 1, 2), (index, text)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
def test_largest_power_literal_ends_in_an_exit_code(tmp_path):
    # q^k took k - 1 products, so q^2147483647 never finished; it is one
    # monomial key now
    path = tmp_path / "huge-power.pf"
    path.write_text("manifold { coords: q, p; poisson: q^2147483647*e_q^e_p }\n", encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.alarm(5)
        try:
            code = main(["check-poisson", str(path), "--quiet"])
        finally:
            signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code == 0


class TestCatalog:
    def test_names(self):
        assert catalog_names() == (
            "aff1-cobracket",
            "canonical-r2-rotation",
            "dressing-linearized",
            "hamiltonian-level-set",
            "so3-coadjoint",
        )

    def test_unknown_entry_lists_names(self):
        with pytest.raises(UnknownCatalogError) as err:
            catalog("nonexistent")
        assert "so3-coadjoint" in str(err.value)

    def test_so3_entry_shape(self):
        problem = catalog("so3-coadjoint")
        assert problem.chart.coords == ("x", "y", "z")
        assert problem.bialgebra.dim == 3
        assert problem.pgmap is not None
        assert problem.momentum is not None

    def test_dressing_entry_shape(self):
        problem = catalog("dressing-linearized")
        assert problem.momentum.components[0] == problem.chart.coord_poly("m1")

    def test_every_entry_passes_everything(self):
        for name in catalog_names():
            reports = run_checks(catalog(name), "all")
            failures = [rep.check_id for rep in reports if rep.verdict == "fail"]
            assert failures == [], f"{name}: {failures}"

class TestRunChecks:
    def test_check_poisson_passes(self):
        assert run_checks(catalog("so3-coadjoint"), "check-poisson")[0].verdict != "fail"

    def test_certify_counterexample_fails(self):
        problem = parse_problem(COUNTEREXAMPLE, name="counterexample")
        reports = run_checks(problem, "certify-pgmap")
        cert = [rep for rep in reports if rep.check_id == "pgmap-certification"]
        assert cert and cert[0].verdict == "fail"
        assert any("cocycle-axiom[e1]" == name for name, _ in cert[0].residuals)

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            run_checks(catalog("so3-coadjoint"), "frobnicate")

    def test_structured_and_text_verdicts_agree(self, capsys):
        reports = run_checks(catalog("so3-coadjoint"), "verify-lift")
        parsed = parse_reports(emit_reports(reports))
        assert [rep.verdict for rep in parsed] == [rep.verdict for rep in reports]


class TestMainEntry:
    def test_pass_exit_code(self, capsys):
        assert main(["check-poisson", "canonical-r2-rotation"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_lift_prints_components(self, capsys):
        assert main(["lift", "so3-coadjoint"]) == 0
        out = capsys.readouterr().out
        assert "INFORMATIVE" in out
        assert "pi_TM" in out

    @pytest.mark.parametrize("text", [
        gl_problem(3, non_poisson=True),
        "manifold {\n  coords: x, y, z\n  poisson: x*e_x^e_y + y*e_y^e_z\n}\n",
    ], ids=["gl3", "xy-yz"])
    def test_all_refuses_to_lift_a_non_poisson_bivector(self, text):
        reports = run_checks(parse_problem(text), "all")
        refusal = (("unverified-input", "Poisson structure is not Jacobi-verified"),)
        assert [(rep.check_id, rep.verdict) for rep in reports] == [
            ("poisson-jacobi", "fail"),
            ("tangent-lift-components", "fail"),
            ("tangent-lift-identity", "fail"),
            ("tangent-prolongation-random", "pass"),
            ("oracle-fd", "pass"),
        ]
        assert reports[1].residuals == reports[2].residuals == refusal

    def test_hamiltonian_command(self, capsys):
        assert main(["hamiltonian", "hamiltonian-level-set"]) == 0
        out = capsys.readouterr().out
        assert "level-set-tangency" in out

    def test_symplectic_command(self, capsys):
        assert main(["symplectic", "canonical-r2-rotation"]) == 0
        out = capsys.readouterr().out
        assert "cotangent-momentum-relation" in out

    def test_all_on_catalog(self, capsys):
        assert main(["all", "so3-coadjoint", "--quiet"]) == 0

    def test_fail_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.pf"
        path.write_text(COUNTEREXAMPLE)
        assert main(["certify-pgmap", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.pf"
        path.write_text("manifold { coords: q\n poisson: e_q^e_oops }")
        assert main(["check-poisson", str(path)]) == 2

    def test_unknown_problem_exit_code(self, capsys):
        assert main(["all", "no-such-entry"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown catalog entry 'no-such-entry'; available: aff1-cobracket, "
            "canonical-r2-rotation, dressing-linearized, hamiltonian-level-set, so3-coadjoint\n")

    def test_report_file_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["verify-lift", "so3-coadjoint", "--report", str(out_path)]) == 0
        parsed = parse_reports(out_path.read_text())
        assert parsed[0].check_id == "tangent-lift-identity"
        assert parsed[0].verdict == "pass"

    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_sample_beyond_the_double_range_reads_inf(self, tmp_path, capsys, route):
        # |residual| on a box of +-1e200 exceeds the largest double; it is
        # reported as inf, not raised as an OverflowError
        text = gl_problem(2, perturb_map=True)
        args = ["--samples", "3"]
        if route == "flag":
            args.append("--box=-1e200,1e200")
        else:
            text = text.replace("box: -2, 2", "box: -1e200, 1e200")
        problem = tmp_path / "gl2-perturbed.pf"
        problem.write_text(text, encoding="utf-8")
        report = tmp_path / "report.txt"
        assert main(["certify-pgmap", str(problem), "--report", str(report), *args]) == 1
        written = report.read_text()
        parsed = parse_reports(written)
        assert math.inf in [value for rep in parsed for _, value in rep.samples]
        assert emit_reports(parsed) == written

    def test_flags_override_plan(self, capsys):
        assert main(["verify-lemma", "so3-coadjoint", "--samples", "5", "--seed", "9"]) == 0

    def test_box_flag(self, capsys):
        # leading '-' requires the '=' form, as usual with argparse
        assert main(["check-poisson", "so3-coadjoint", "--box=-1,1"]) == 0

    @pytest.mark.parametrize(
        "flags",
        [["--box", "oops"], ["--samples", "0"], ["--samples", "-3"], ["--box", "2,-2"],
         ["--fd-step", "0"], ["--fd-step", "-1"], ["--fd-step", "1/100"]],
        ids=["box-oops", "samples-zero", "samples-negative", "box-empty",
             "fd-step-zero", "fd-step-negative", "fd-step"],
    )
    def test_bad_box_flag(self, capsys, flags):
        # --fd-step is no option since the oracle is exact: argparse refuses it
        try:
            code = main(["check-poisson", "so3-coadjoint", *flags])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") or err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")

    @pytest.mark.parametrize("case", ["report-in-missing-dir", "report-is-dir", "problem-is-dir"])
    def test_unreadable_or_unwritable_path(self, tmp_path, capsys, case):
        path = str(tmp_path / "missing" / "x") if case == "report-in-missing-dir" else str(tmp_path)
        argv = ["all", path] if case == "problem-is-dir" else ["all", "so3-coadjoint", "--report", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and path in err

    @pytest.mark.parametrize(
        "problem",
        list(catalog_names()) + [str(p) for p in sorted(_CONFORMANCE.glob("valid/*.pf"))]
        + [str(p) for p in sorted(_CONFORMANCE.glob("invalid/*.pf"))],
        ids=lambda p: Path(p).stem,
    )
    def test_every_command_ends_in_a_verdict(self, capsys, problem):
        invalid = Path(problem).parent.name == "invalid"
        for command in COMMANDS:
            code = main([command, problem, "--samples", "5"])
            err = capsys.readouterr().err
            assert code in ((2,) if invalid else (0, 1, 2)), command
            assert "Traceback" not in err, command
            if invalid:
                assert err.startswith("error:") and "(line " in err, command

    @pytest.mark.parametrize("name", [*catalog_names(), "own-oracle"])
    def test_run_checks_matches_main(self, tmp_path, capsys, name):
        if name == "own-oracle":
            name = str(tmp_path / "problem.pf")
            Path(name).write_text(OWN_ORACLE)
        path = tmp_path / "report.txt"
        main(["all", name, "--report", str(path)])
        assert emit_reports(run_checks(_load_problem(name), "all")) == path.read_text()

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("check_id", [row.check_id for rows in CHECKS.values() for row in rows])
    def test_a_check_id_runs_alone_from_the_command_line(self, tmp_path, capsys, name, check_id):
        # the command line takes every name run_checks takes
        path = tmp_path / "report.txt"
        code = main([check_id, name, "--report", str(path)])
        capsys.readouterr()
        try:
            reports = run_checks(catalog(name), check_id)
        except ParseError:  # the problem lacks a block the check reads
            assert code == 2 and not path.exists()
            return
        assert code == (1 if any(rep.verdict == "fail" for rep in reports) else 0)
        assert path.read_text() == emit_reports(reports)

    @pytest.mark.parametrize("name", catalog_names())
    def test_all_runs_every_applicable_command(self, name):
        problem = catalog(name)
        expected = []
        for command in COMMANDS[:-1]:
            try:
                expected += run_checks(problem, command)
            except ParseError:  # the problem lacks a block the command needs
                pass
        reports = run_checks(problem, "all")
        assert reports == expected
        assert reports[-1].check_id == "oracle-fd"

    @pytest.mark.parametrize("name", catalog_names())
    def test_oracle_fd_by_id_is_the_report_all_ends_with(self, name):
        problem = catalog(name)
        assert run_checks(problem, "oracle-fd") == run_checks(problem, "all")[-1:]


@pytest.mark.parametrize(
    "command, block",
    # the blocks every row of the command reads
    [(command, block) for command, rows in CHECKS.items()
     for block in rows[0].blocks if all(block in row.blocks for row in rows)],
    ids=lambda value: value,
)
def test_command_without_its_block(command, block):
    # canonical-r2-rotation has every block a command can need
    problem = copy.copy(catalog("canonical-r2-rotation"))
    setattr(problem, block, None)
    with pytest.raises(ParseError, match=f"^problem 'canonical-r2-rotation' has no {block} block$"):
        run_checks(problem, command)


@pytest.mark.parametrize("name", catalog_names())
def test_all_certifies_and_lifts_once(monkeypatch, name):
    jacobi = count_calls(monkeypatch, chart, "jacobi_check")
    lifts = count_calls(monkeypatch, tangent, "complete_lift_bivector")
    residuals = count_calls(monkeypatch, reduction, "pgmap_residuals")
    run_checks(catalog(name), "all")
    assert len(lifts) == 1
    assert len(residuals) <= 1
    assert len(jacobi) <= 3


@pytest.mark.parametrize("name", [*catalog_names(), "gl3"])
def test_jacobi_is_checked_once_when_first_needed(monkeypatch, name):
    # pi_TM is Poisson because pi is, so only [pi, pi] is evaluated, and
    # only once a command reads its verdict
    calls = count_calls(monkeypatch, poisson, "jacobi_check")
    problem = parse_problem(gl_problem(3)) if name == "gl3" else catalog(name)
    assert calls == []
    run_checks(problem, "all")
    assert len(calls) == 1


@pytest.mark.parametrize("name", [*catalog_names(), "gl3"])
def test_all_builds_one_tangent_chart(monkeypatch, name):
    # every check reads Resolved.tc; the lift identity and the cotangent
    # momentum relation each built their own before
    problem = parse_problem(gl_problem(3)) if name == "gl3" else catalog(name)
    calls = count_calls(monkeypatch, tangent, "tangent_chart")
    run_checks(problem, "all")
    assert len(calls) == 1


@pytest.mark.parametrize("name", [*catalog_names(), "gl3"])
def test_a_cli_run_builds_one_tangent_chart(monkeypatch, tmp_path, name):
    # parsing checks the names by string (check_names); it built a second one
    (tmp_path / "gl3.pf").write_text(gl_problem(3), encoding="utf-8")
    built = count_calls(monkeypatch, tangent.TangentChart, "__init__")
    assert main(["all", str(tmp_path / "gl3.pf") if name == "gl3" else name]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("name", [*catalog_names(), "gl3"])
def test_parse_builds_no_bundle_chart(monkeypatch, name):
    # checking the names built TM twice and the other bundle charts once each
    charts = count_calls(monkeypatch, chart.Chart, "__init__")
    parse_problem(gl_problem(3)) if name == "gl3" else catalog(name)
    assert charts and not {args[0].name for args in charts} & {"TM", "T*M", "TT*M", "T*TM", "TTM"}


def test_main_builds_no_argument_parser(monkeypatch):
    # the parser is built once, at import
    built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    for _ in range(2):
        assert main(["check-poisson", "so3-coadjoint", "--quiet"]) == 0
    assert built == []


@pytest.mark.parametrize("perturbed", [False, True])
def test_pgmap_residuals_sharps_each_image_once(monkeypatch, perturbed):
    # one Koszul bracket per basis pair took both sharps afresh: 72 sharp
    # calls for the 9 images of gl(3); d(pi(alpha, beta)) through
    # poisson.differential took 36 more exterior derivatives and walked a
    # fresh pairing polynomial per pair, where the product rule reads the
    # partials of the held sharp components
    problem = parse_problem(gl_problem(3, perturb_map=perturbed))
    sharps = count_calls(monkeypatch, poisson, "sharp")
    residuals = count_calls(monkeypatch, reduction, "pgmap_residuals")
    derivatives = count_calls(monkeypatch, chart, "exterior_derivative")
    differentials = count_calls(monkeypatch, poisson, "differential")
    walked = []
    partials = Polynomial._partials

    def walk(poly):
        if poly._partials_memo is None:
            walked.append(poly)
        return partials(poly)

    monkeypatch.setattr(Polynomial, "_partials", walk)
    run_checks(problem, "certify-pgmap")
    assert len(residuals) == 1
    assert len(sharps) == problem.pgmap.bialgebra.dim == 9
    (pg, held), = residuals
    assert len(derivatives) == 9
    assert all(form is image for (form,), image in zip(derivatives, pg.images))
    assert differentials == []
    components = [comp for field in held for comp in field._components.values()]
    counts = [sum(poly is comp for poly in walked) for comp in components]
    assert max(counts) == 1


@pytest.mark.parametrize("exit_path", ["return 0", "return 1", "exit 2", "argparse", "exception"])
@pytest.mark.parametrize("caller_froze", [False, True])
def test_main_unfreezes_only_what_it_froze(monkeypatch, tmp_path, exit_path, caller_froze):
    # main freezes the objects that exist at entry, so that the cyclic
    # collector runs where the call's own work puts it; every exit path
    # restores the freeze count, and a caller's frozen objects stay frozen
    failing = tmp_path / "bad.pf"
    failing.write_text(COUNTEREXAMPLE)
    argv = {"return 0": ["check-poisson", "so3-coadjoint", "--quiet"],
            "return 1": ["certify-pgmap", str(failing), "--quiet"],
            "exit 2": ["all", "no-such-entry"],
            "argparse": ["all", "so3-coadjoint", "--no-such-flag"],
            "exception": ["check-poisson", "so3-coadjoint"]}[exit_path]
    seen = []
    checks_run = cli.run_checks

    def spy(*args, **kwargs):
        seen.append(gc.get_freeze_count())
        if exit_path == "exception":
            raise RuntimeError("injected")
        return checks_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_checks", spy)
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if exit_path == "argparse":
                with pytest.raises(SystemExit):
                    main(argv)
            elif exit_path == "exception":
                with pytest.raises(RuntimeError, match="^injected$"):
                    main(argv)
            else:
                assert main(argv) == int(exit_path[-1])
        assert gc.get_freeze_count() == before
    finally:
        if caller_froze:
            gc.unfreeze()
    if exit_path in ("exit 2", "argparse"):
        assert seen == []
    else:
        # the checks ran with the caller's objects frozen, by main or before
        assert len(seen) == 1
        assert seen[0] == before if caller_froze else seen[0] > before


def test_all_derives_each_image_object_once(monkeypatch):
    # pgmap_residuals, tangent_generator, tangent_generator_direct and
    # characteristic_identity_residuals read Resolved.sharps, PGMap.differentials
    # and Resolved.twists; a reader deriving its own makes 18 / 27 / 18 calls
    problem = parse_problem(gl_problem(3))
    sharps = count_calls(monkeypatch, poisson, "sharp")
    derivatives = count_calls(monkeypatch, chart, "exterior_derivative")
    twists = count_calls(monkeypatch, tangent, "i_T")
    run_checks(problem, "all")
    assert sum(pi.chart == problem.chart for pi, _ in sharps) == 9
    assert sum(form.degree == 1 for (form,) in derivatives) == 9
    assert sum(form.degree == 2 for _, form in twists) == 9


@pytest.mark.parametrize("perturbed", [False, True])
def test_certify_pgmap_takes_no_lie_derivative(monkeypatch, perturbed):
    # the bracket axiom files the products of the Koszul bracket, d(pi(phi_i,
    # phi_j)) by the product rule and the contractions into the held
    # d(phi_i), with those of phi_[i,j]; two Lie derivatives per basis pair
    # made 72 calls on gl(3)
    problem = parse_problem(gl_problem(3, perturb_map=perturbed))
    calls = count_calls(monkeypatch, chart, "lie_derivative")
    reports = run_checks(problem, "certify-pgmap")
    assert [rep.verdict for rep in reports if rep.check_id == "pgmap-certification"] == [
        "fail" if perturbed else "pass"]
    assert calls == []


def test_all_contracts_pi_tm_once_per_basis_element(monkeypatch):
    # bracket-closure reads the fields X_(c_i) that tangent-generator builds
    # (Resolved.hamiltonians); a closure through poisson_bracket walked pi_TM
    # once per basis pair: 36 brackets + 9 sharps on gl(3)
    problem = parse_problem(gl_problem(3))
    total = tangent.tangent_chart(problem.chart).total
    sharps = count_calls(monkeypatch, poisson, "sharp")
    brackets = count_calls(monkeypatch, poisson, "poisson_bracket")
    run_checks(problem, "all")
    assert sum(args[0].chart == total for args in sharps + brackets) == 9


def test_all_computes_the_comomenta_once(monkeypatch):
    # bracket-closure, tangent-generator and characteristic-identity all read
    # Resolved.comomenta; each computed c_i = i_T(phi_i) for itself before
    problem = parse_problem(gl_problem(3))
    calls = count_calls(monkeypatch, reduction, "comomentum_components")
    run_checks(problem, "all")
    assert [args[0] for args in calls] == [problem.pgmap]


def test_all_differentiates_each_comomentum_once(monkeypatch):
    # Resolved.hamiltonians and bracket_closure_residuals read Resolved.dc;
    # each took dc_i for itself before, 18 differentials on TM on gl(3)
    problem = parse_problem(gl_problem(3))
    total = tangent.tangent_chart(problem.chart).total
    calls = count_calls(monkeypatch, poisson, "differential")
    reports = run_checks(problem, "all")
    assert [rep.check_id for rep in reports if rep.verdict == "fail"] == []
    assert sum(on == total for on, _ in calls) == 9


def test_lemma_sides_stay_on_separate_kernels(monkeypatch):
    # verify-lemma compares the prolongation, built by _complete_lift_poly,
    # with d_T, built by the chart's Lie derivative; a Lie derivative that
    # called _complete_lift_poly would share a wrong lift with the other side.
    # The lift is a key shift: it differentiates nothing, while d_T takes its
    # partials from the gradient kernel, so no differentiation code is shared
    depth, lifts, entered = [0], [], []
    lift = tangent._complete_lift_poly
    inside_lift, partials = [0], {"derivative": [], "_partials": []}

    def traced_lie(lie):
        def traced(*args):
            entered.append(lie.__name__)
            depth[0] += 1
            try:
                return lie(*args)
            finally:
                depth[0] -= 1
        return traced

    def traced_lift(*args):
        lifts.append(depth[0])
        inside_lift[0] += 1
        try:
            return lift(*args)
        finally:
            inside_lift[0] -= 1

    def traced_partial(name):
        method = getattr(Polynomial, name)
        return lambda poly, *args: partials[name].append(inside_lift[0]) or method(poly, *args)

    # d_T calls the form kernel with the tangent chart's held partials
    for name in ("lie_derivative", "_lie_derivative_form"):
        lie = getattr(chart, name)
        for key, mod in list(sys.modules.items()):
            if key.startswith("poissonlift") and getattr(mod, name, None) is lie:
                monkeypatch.setattr(mod, name, traced_lie(lie))
    monkeypatch.setattr(tangent, "_complete_lift_poly", traced_lift)
    for name in partials:
        monkeypatch.setattr(Polynomial, name, traced_partial(name))
    run_checks(parse_problem(gl_problem(3)), "verify-lemma")
    assert "_lie_derivative_form" in entered and lifts and set(lifts) == {0}
    assert partials["_partials"] and set(partials["_partials"]) == {0}
    assert set(partials["derivative"]) <= {0}


def test_verify_lemma_differentiates_each_tautological_component_once(monkeypatch):
    # d_T took the gradient of every v_j again on each of the d + d^2 probes:
    # 180 _gradient calls on gl(3), 90 of them on a v_j; held per tangent
    # chart, the v_j take 9 and the probes' components the other 90
    problem = parse_problem(gl_problem(3))
    gradients = count_calls(monkeypatch, chart, "_gradient")
    run_checks(problem, "verify-lemma")
    assert len(gradients) <= 99


def test_verify_lemma_lifts_each_coefficient_once(monkeypatch):
    # the n(n+1) probes on gl(3) (n = 9) take n + 1 distinct coefficients,
    # 1 and each x_k; each probe lifted its own coefficient, 90
    # _complete_lift_poly calls.  Every probe still goes through the d_T
    # kernel, so no probe skips the identity under test
    problem = parse_problem(gl_problem(3))
    lifts = count_calls(monkeypatch, tangent, "_complete_lift_poly")
    kernels = count_calls(monkeypatch, chart, "_lie_derivative_form")
    (report,) = run_checks(problem, "verify-lemma")
    assert report.verdict == "pass"
    assert len(lifts) == 10
    assert len(kernels) == 90


def test_symplectic_builds_its_pgmap_once(monkeypatch):
    calls = count_calls(monkeypatch, reduction, "symplectic_pgmap")
    assert main(["symplectic", "canonical-r2-rotation"]) == 0
    assert len(calls) == 1


def test_all_on_gl3_walks_only_nonzero_support(monkeypatch):
    # walking dense coordinate ranges, `all` on gl(3) took 24,030 partial
    # derivatives and oracle-fd 810 substitutions (nine per polynomial); a
    # Schouten bracket that differentiated every component by every
    # coordinate still took 3,228 derivatives
    problem = parse_problem(gl_problem(3))
    derivatives = count_calls(monkeypatch, Polynomial, "derivative")
    substitutions = count_calls(monkeypatch, Polynomial, "substitute")
    reports = run_checks(problem, "all")
    assert [rep.check_id for rep in reports if rep.verdict == "fail"] == []
    assert len(derivatives) <= 1000
    # every sampled check evaluates through poly.scaled_values
    assert substitutions == []


def test_all_on_gl3_builds_sums_in_one_term_map(monkeypatch):
    # built one binary operator call at a time, each sum of products, partial
    # and complete lift made 2,260 calls of these operators (915 *, 24 r*,
    # 415 +, 468 - and 438 derivative); Polynomial._sum_of_products,
    # Polynomial._partials and the key shift of _complete_lift_poly make none.
    # A Schouten bracket summed by from_terms' + chain still made 114 * and
    # 46 +; what is left is 324 - and 24 derivative
    problem = parse_problem(gl_problem(3))
    calls = [count_calls(monkeypatch, Polynomial, name)
             for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "derivative")]
    reports = run_checks(problem, "all")
    assert [rep.check_id for rep in reports if rep.verdict == "fail"] == []
    assert sum(map(len, calls)) <= 348


@pytest.mark.parametrize("command, perturbed, most", [("all", False, 49), ("bracket-closure", True, 39)])
def test_gl3_walks_each_held_polynomial_once(monkeypatch, command, perturbed, most):
    # a unit product 1 * a * b gave a copy of the other factor, without its
    # kept partials: sharp's +-pi^(ij) and the comomenta's v_j were walked
    # again, 79 walks in `all` and 56 in a perturbed `bracket-closure`.  The
    # repeats left are equal values in distinct objects that the parser
    # built: components of pi (Jacobi) and the unit components of the images
    walks, partials = [], Polynomial._partials

    def counted(poly):  # a walk is a call that finds no partials kept on the object
        if poly._partials_memo is None:
            walks.append(poly)
        return partials(poly)
    monkeypatch.setattr(Polynomial, "_partials", counted)
    run_checks(parse_problem(gl_problem(3, perturb_map=perturbed)), command)
    assert len(walks) <= most


def test_all_on_gl3_builds_no_coordinate_function_by_name(monkeypatch):
    # Chart.coord_poly went through the validating Polynomial.variable, 63
    # calls, each rebuilding a set of the chart's names
    variables = count_calls(monkeypatch, Polynomial, "variable")
    reports = run_checks(parse_problem(gl_problem(3)), "all")
    assert [rep.check_id for rep in reports if rep.verdict == "fail"] == []
    assert variables == []


@pytest.mark.parametrize("name", catalog_names())
def test_all_makes_no_fraction_substitution(monkeypatch, name):
    # oracle-fd made 48 Fraction substitutions over the five entries
    substitutions = count_calls(monkeypatch, Polynomial, "substitute")
    run_checks(catalog(name), "all")
    assert substitutions == []


@pytest.mark.parametrize("name", [*catalog_names(), "gl3"])
def test_all_reads_no_dense_exponent_tuples(monkeypatch, name):
    # printing, the lift identity's v -> qdot renaming, sampling and
    # composition read 348 dense term maps on gl(3) and 137 over the
    # five catalog entries; they walk the packed keys instead
    reads = []
    dense = Polynomial.terms.fget
    monkeypatch.setattr(Polynomial, "terms", property(lambda poly: reads.append(poly) or dense(poly)))
    problem = parse_problem(gl_problem(3)) if name == "gl3" else catalog(name)
    run_checks(problem, "all")
    assert reads == []


def test_verify_lemma_shares_one_zero_polynomial_per_chart(monkeypatch):
    # a fresh zero polynomial for every missing component made 3,240
    # Polynomial.zero calls in verify-lemma on gl(3)
    problem = parse_problem(gl_problem(3))
    zeros = count_calls(monkeypatch, Polynomial, "zero")
    reports = run_checks(problem, "verify-lemma")
    assert [rep.verdict for rep in reports] == ["pass"]
    assert len(zeros) <= 100


@pytest.mark.parametrize("name", catalog_names())
def test_all_runs_each_bialgebra_check_once(monkeypatch, name):
    checks = [count_calls(monkeypatch, LieBialgebra, check)
              for check in ("check_jacobi", "check_cocycle", "check_cojacobi")]
    run_checks(catalog(name), "all")
    assert [len(calls) for calls in checks] == [1, 1, 1]


def test_verify_lemma_reads_no_plan(tmp_path, capsys):
    # the lemma is proved on affine forms, so neither seed nor count matters
    outputs = []
    for argv in ([], ["--samples", "3", "--seed", "9"]):
        path = tmp_path / "report.txt"
        assert main(["verify-lemma", "so3-coadjoint", "--report", str(path), *argv]) == 0
        outputs.append((capsys.readouterr().out, path.read_text()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["aff1-cobracket", "so3-coadjoint"])
def test_verify_lemma_catches_a_wrong_complete_lift(monkeypatch, name):
    original = tangent._complete_lift_poly
    monkeypatch.setattr(tangent, "_complete_lift_poly", lambda tc, poly: original(tc, poly) * 2)
    (report,) = run_checks(catalog(name), "verify-lemma")
    assert report.verdict == "fail"
    # f^c only differs on nonconstant coefficients: the x_k*dx_j forms
    assert report.residuals
    assert all(re.fullmatch(r"\w+\*d\w+:\w+", label) for label, _ in report.residuals)


def _oracle_fd_record(text: str):
    (report,) = run_checks(parse_problem(text), "oracle-fd")
    return report


@pytest.mark.parametrize("old, new", [("", ""), *CUBIC_EDITS.values()], ids=["quadratic", *CUBIC_EDITS])
def test_oracle_fd_is_exact_at_any_degree(old, new):
    # central differences with step 1 were exact up to degree 2 only, so
    # each cubic edit failed
    report = _oracle_fd_record(QUADRATIC.replace(old, new))
    assert (report.verdict, report.residuals, report.samples) == ("pass", (), ())


_BLOCK_RESIDUALS = {"poisson": "pi[q,p]/d", "pgmap": "pgmap[e1,q]/d", "momentum": "momentum[e1]/d"}


@pytest.mark.parametrize("block", list(CUBIC_EDITS))
def test_oracle_fd_differentiates_the_problem(monkeypatch, block):
    # partials doubled on cubic polynomials only: the quadratic problem still
    # passes, and each cubic edit fails with residuals naming its block
    exact = Polynomial._partials

    def wrong(f):
        cubic = any(sum(exps) == 3 for exps in f.terms)
        return {i: p * 2 if cubic else p for i, p in exact(f).items()}

    monkeypatch.setattr(Polynomial, "_partials", wrong)
    assert _oracle_fd_record(QUADRATIC).verdict == "pass"
    report = _oracle_fd_record(QUADRATIC.replace(*CUBIC_EDITS[block]))
    assert report.verdict == "fail"
    assert report.residuals and all(name.startswith(_BLOCK_RESIDUALS[block]) for name, _ in report.residuals)


def test_oracle_fd_checks_the_partials_the_lifts_use(monkeypatch):
    # d_T, the Schouten bracket, d and the lift identity differentiate
    # through Polynomial._partials; doubling every partial must fail the
    # oracle on each nonconstant polynomial, one residual per variable used
    exact = Polynomial._partials
    monkeypatch.setattr(Polynomial, "_partials", lambda f: {i: p * 2 for i, p in exact(f).items()})
    report = _oracle_fd_record(QUADRATIC)
    assert report.verdict == "fail"
    assert [name for name, _ in report.residuals] == [
        "pi[q,p]/dq", "pi[q,p]/dp", "pgmap[e1,q]/dq", "pgmap[e1,q]/dp", "momentum[e1]/dq", "momentum[e1]/dp"]


@pytest.mark.parametrize("count", [7, 100])
def test_oracle_fd_draws_only_the_points_it_reads(monkeypatch, count):
    # oracle-fd reads one plan point per polynomial (30 on gl(3)), cycling
    # through the stream when it is shorter; it drew the whole stream
    problem = parse_problem(gl_problem(3))
    plan = SamplePlan(count, problem.plan.seed, problem.plan.box)
    draw = SamplePlan.stream
    drawn, read = [], []
    limited = True

    def stream(self, nvars, limit=None):
        denominator, points = draw(self, nvars, limit if limited else None)
        drawn.append(len(points))
        return denominator, points

    monkeypatch.setattr(SamplePlan, "stream", stream)
    monkeypatch.setattr(checks, "fd_derivative_check",
                        lambda polys, variables, points, denominator:
                        read.extend(points[index % len(points)] for index in range(len(polys))) or {})
    run_checks(problem, "oracle-fd", plan)
    limited = False
    run_checks(problem, "oracle-fd", plan)
    assert len(read) == 60
    assert read[:30] == read[30:] == [draw(plan, 9)[1][index % count] for index in range(30)]
    assert drawn == [min(count, 30), count]


HUGE_JACOBIATOR = "manifold {\n  coords: x, y, z\n  poisson: 2^10000*x*e_x^e_y + 2^10000*y*e_y^e_z\n}\n"


def test_a_residual_past_the_integer_text_limit_prints_in_full(tmp_path, capsys):
    # [pi, pi] = 2^20001 x: a coefficient of 6,021 digits from literals of
    # 3,011, past the 4,300 digits str() converts by default; printing it
    # ended in a ValueError traceback
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    problem, report = tmp_path / "huge.pf", tmp_path / "report.txt"
    problem.write_text(HUGE_JACOBIATOR, encoding="utf-8")
    assert main(["check-poisson", str(problem), "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    digits = str(decimal.Decimal(2 ** 20001))  # the digits by a second route
    assert len(digits) == 6021
    assert f"    residual [pi,pi][x,y,z] = {digits}*x\n" in out
    assert err == ""
    assert f"residual: [pi,pi][x,y,z] := {digits}*x\n" in report.read_text(encoding="utf-8")
    # printing leaves the interpreter's limit as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
