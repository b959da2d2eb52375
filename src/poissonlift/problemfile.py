"""Block-structured problem files and the built-in example catalog.

A problem file is UTF-8 text made of named blocks of entries, described in
``docs/problem-file-format.md``.  ``_SCHEMA`` below states every block, key,
value parser and companion rule once; the scanner, the entry reader and the
loader all read it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from ._value import _Value
from .bialgebra import LieBialgebra
from .chart import Chart, Multivector
from .errors import ParseError, UnknownCatalogError
from .oracle import DEFAULT_BOX, DEFAULT_SAMPLES, DEFAULT_SEED, SamplePlan
from .parser import _tokenize, is_identifier, parse_form, parse_multivector, parse_poly
from .poisson import PoissonStructure, SymplecticForm
from .reduction import PGMap, require_zero_level
from .tangent import CoordinateMap, check_names


class ProblemFile(_Value):
    _fields = ("name", "chart", "poisson", "symplectic", "bialgebra", "pgmap", "momentum",
               "action", "levelset", "plan")

    def __init__(self, name: str, chart: Chart, poisson: PoissonStructure,
                 symplectic: SymplecticForm | None = None, bialgebra: LieBialgebra | None = None,
                 pgmap: PGMap | None = None, momentum: CoordinateMap | None = None,
                 action: tuple[Multivector, ...] | None = None, levelset: CoordinateMap | None = None,
                 plan: SamplePlan = SamplePlan()):
        self.name = name
        self.chart = chart
        self.poisson = poisson  # the declared one, or the symplectic form's
        self.symplectic = symplectic
        self.bialgebra = bialgebra
        self.pgmap = pgmap
        self.momentum = momentum  # J: M -> g*
        self.action = action
        self.levelset = levelset
        self.plan = plan


def _at(line: int | None, prefix: str, parse: Callable, *args):
    """``parse(*args)``: the one place where a ValueError or ZeroDivisionError
    raised while reading input becomes a ParseError, on ``line`` and after
    ``prefix``."""
    try:
        return parse(*args)
    except (ValueError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else str(exc)
        raise ParseError(prefix + reason, line=line) from exc


# -- value parsers ------------------------------------------------------------------
#
# Each takes the entry's text and ``env``, the values read so far: key values
# under their key (``coords`` holds the chart), block values under the block.


def _names(text: str, env=None, identifiers: bool = True) -> tuple[str, ...]:
    """Comma-separated entries, none empty; with ``identifiers``, names literals can read."""
    names = tuple(part.strip() for part in text.split(","))
    if "" in names:
        raise ValueError(f"empty entry in {text!r}")
    for name in names if identifiers else ():
        if not is_identifier(name):
            raise ValueError(f"{name!r} is not an identifier")
    return names


def _coords(text: str, env) -> Chart:
    """The chart, refused when it breaks the bundle naming rule of ``check_names``."""
    chart = Chart("M", _names(text))
    check_names(chart)
    return chart


def _combo(text: str, names: tuple[str, ...], wedge: bool) -> dict:
    """Parse ``2 e1^e2 - 1/2 e2^e3`` style combinations.

    Returns a dict keyed by basis index (wedge=False) or ordered index pair;
    the sums are ints, and a Fraction enters only with a written ``a/b``.
    """
    tokens = _tokenize(text)
    result: dict = {}
    i = 0

    def err(msg):
        raise ValueError(f"{msg} in {text!r}")

    sign = 1
    expect_term = True
    while tokens[i][0] != "end":
        kind, word, _ = tokens[i]
        if word in ("+", "-"):
            sign = 1 if word == "+" else -1
            i += 1
            expect_term = True
            continue
        if not expect_term:
            err("expected '+' or '-' between terms")
        coeff = 1
        if kind == "int":
            coeff = int(word)
            i += 1
            if tokens[i][1] == "/":
                i += 1
                if tokens[i][0] != "int":
                    err("expected integer denominator")
                coeff = Fraction(coeff, int(tokens[i][1]))
                i += 1
            if tokens[i][1] == "*":
                i += 1
        kind, word, _ = tokens[i]
        if kind != "ident":
            if coeff == 0:
                expect_term = False
                continue  # a bare 0 term
            err("expected a basis symbol")
        if word not in names:
            err(f"unknown basis symbol {word!r}")
        first = names.index(word)
        i += 1
        if wedge:
            if tokens[i][1] != "^":
                err("expected '^' between basis symbols")
            i += 1
            kind, word, _ = tokens[i]
            if kind != "ident" or word not in names:
                err("expected a basis symbol after '^'")
            second = names.index(word)
            i += 1
            key = (first, second)
        else:
            key = first
        result[key] = result.get(key, 0) + sign * coeff
        sign = 1
        expect_term = False
    if expect_term and result:
        err("dangling sign")
    return result


def _levelset_map(text: str, env) -> tuple:
    pieces = [p.strip() for p in text.split(",")]
    dim = env["coords"].dim
    if len(pieces) != dim:
        raise ValueError(f"levelset map needs {dim} components, got {len(pieces)}")
    return tuple(parse_poly(piece, env["params"].coords) for piece in pieces)


def _positive(convert: Callable[[str], Any]):
    def parse(text: str, env):
        value = convert(text)
        if value <= 0:
            raise ValueError("must be positive")
        return value
    return parse


def _interval(text: str, env) -> tuple[Fraction, Fraction]:
    pieces = _names(text, identifiers=False)
    if len(pieces) != 2:
        raise ValueError("box takes 'lo, hi'")
    lo, hi = Fraction(pieces[0]), Fraction(pieces[1])
    if lo > hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    return lo, hi


# -- the schema table --------------------------------------------------------------


class _Key(NamedTuple):
    parse: Callable[[str, dict], Any]
    required: bool = False
    default: Any = None
    requires: tuple[str, ...] = ()  # companions, as for _Spec


class _Spec(NamedTuple):
    """One block of a problem file.

    With ``sep`` ':' the keys are names.  With '=' the block has one key, a
    pattern whose ``{}`` holes are bialgebra basis names; the block's value
    is a dict keyed by the tuple of hole indices or, for a required ``{}``
    key, the tuple of one value per basis element in basis order."""

    parent: str  # "" for the file
    sep: str
    keys: dict[str, _Key]
    requires: tuple[str, ...] = ()  # companion blocks, or "block.key" for an entry
    one_of: tuple[str, ...] = ()  # keys of which exactly one must be present
    build: Callable[[dict], Any] | None = None  # env -> the block's value
    quoted: bool = False  # errors quote the entry: "bad <block> <key> '<text>': ..."


# Blocks and keys are read in table order, so the companions of a block and
# the keys a value parser reads come before it.
_SCHEMA: dict[str, _Spec] = {
    "manifold": _Spec("", ":", {
        "coords": _Key(_coords, required=True),
        "poisson": _Key(lambda text, env: PoissonStructure(
            parse_multivector(text, env["coords"], degree=2))),
        # read before 'symplectic', whose value needs it
        "inverse": _Key(lambda text, env: parse_multivector(text, env["coords"], degree=2),
                        requires=("manifold.symplectic",)),
        "symplectic": _Key(lambda text, env: SymplecticForm.from_two_form(
            parse_form(text, env["coords"], degree=2), env["inverse"])),
    }, one_of=("poisson", "symplectic")),
    "bialgebra": _Spec("", ":", {
        "basis": _Key(_names, required=True),
    }, build=lambda env: LieBialgebra(
        env["basis"], env.get("bracket"), {i: row for (i,), row in env.get("cocycle", {}).items()})),
    "bracket": _Spec("bialgebra", "=", {
        "[{},{}]": _Key(lambda text, env: _combo(text, env["basis"], wedge=False)),
    }),
    "cocycle": _Spec("bialgebra", "=", {
        "d({})": _Key(lambda text, env: _combo(text, env["basis"], wedge=True)),
    }),
    "pgmap": _Spec("", "=", {
        "{}": _Key(lambda text, env: parse_form(text, env["coords"], degree=1), required=True),
    }, requires=("bialgebra",),
        build=lambda env: PGMap(env["bialgebra"], env["coords"], env["pgmap"])),
    "momentum": _Spec("", "=", {
        "{}": _Key(lambda text, env: parse_poly(text, env["coords"].coords), required=True),
    }, requires=("bialgebra",),
        build=lambda env: CoordinateMap(env["coords"], Chart("g*", env["basis"]), env["momentum"])),
    "action": _Spec("", "=", {
        "{}": _Key(lambda text, env: parse_multivector(text, env["coords"], degree=1), required=True),
    }, requires=("bialgebra", "manifold.symplectic")),
    "levelset": _Spec("", ":", {
        "params": _Key(lambda text, env: Chart("S", _names(text)), required=True),
        "map": _Key(_levelset_map, required=True),
    }, requires=("momentum",),
        build=lambda env: require_zero_level(
            env["momentum"], CoordinateMap(env["params"], env["coords"], env["map"]))),
    "oracle": _Spec("", ":", {
        "samples": _Key(_positive(int), default=DEFAULT_SAMPLES),
        "seed": _Key(lambda text, env: int(text), default=DEFAULT_SEED),
        "box": _Key(_interval, default=DEFAULT_BOX),
    }, quoted=True,
        build=lambda env: SamplePlan(env["samples"], env["seed"], env["box"])),
}


def oracle_value(key: str, text: str, source: str):
    """``text`` read as the oracle block's ``key``; a bad value is a
    ParseError naming ``source`` (a command-line flag, say)."""
    return _at(None, f"bad {source} {text!r}: ", _SCHEMA["oracle"].keys[key].parse, text, {})


# -- raw block scanner ---------------------------------------------------------


class _Block(_Value):
    _fields = ("name", "line", "entries")

    def __init__(self, name: str, line: int, entries: list[tuple[int, str]]):
        self.name = name
        self.line = line
        self.entries = entries


_BRACES = re.compile(r"([{}])")


def _scan_blocks(text: str) -> dict[str, _Block]:
    """Brace-aware block scanner.  A block opens with ``name {`` (content may
    continue on the same line) and closes with ``}``; entries may share a
    line when separated by ``;``, also with the name of a block that opens
    after them.  Every block name has one parent in the schema, so the
    blocks come back in one dict."""
    blocks: dict[str, _Block] = {}
    stack: list[_Block] = []

    def flush(buffer: str, lineno: int) -> None:
        for piece in buffer.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if not stack:
                raise ParseError(f"content outside any block: {piece!r}", line=lineno)
            stack[-1].entries.append((lineno, piece))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        buffer = ""
        for segment in _BRACES.split(line):
            if segment == "{":
                entries, _, name = buffer.rpartition(";")
                flush(entries, lineno)
                name = name.strip()
                if not name.isidentifier():
                    raise ParseError(f"bad block name {name!r}", line=lineno)
                parent = stack[-1].name if stack else ""
                if name not in _SCHEMA or _SCHEMA[name].parent != parent:
                    where = f" in {parent!r}" if parent else ""
                    raise ParseError(f"unknown block {name!r}{where}", line=lineno)
                if name in blocks:
                    raise ParseError(f"duplicate block {name!r}", line=lineno)
                blocks[name] = _Block(name, lineno, [])
                stack.append(blocks[name])
                buffer = ""
            elif segment == "}":
                flush(buffer, lineno)
                buffer = ""
                if not stack:
                    raise ParseError("unmatched '}'", line=lineno)
                stack.pop()
            else:
                buffer += segment
        flush(buffer, lineno)
    if stack:
        raise ParseError(f"block {stack[-1].name!r} is not closed", line=stack[-1].line)
    return blocks


# -- the loader --------------------------------------------------------------------


def _holes(pattern: str, written: str) -> tuple[str, ...] | None:
    """The names in the ``{}`` holes of ``pattern`` as ``written`` fills
    them, stripped of blanks, or None when ``written`` does not have the
    pattern's shape.  A hole ends at the first occurrence of the text that
    follows it, so ``[e1, e2, e3]`` fills ``[{},{}]`` with ``e1`` and
    ``e2, e3``, which the loader then refuses as a basis name."""
    head, *separators, tail = pattern.split("{}")
    if not (written.startswith(head) and written.endswith(tail)):
        return None
    rest = written[len(head):len(written) - len(tail)]
    holes = []
    for separator in separators:
        hole, found, rest = rest.partition(separator)
        if not found:
            return None
        holes.append(hole.strip())
    holes.append(rest.strip())
    return tuple(holes)


def _entry_map(block: _Block) -> dict:
    """The block's entries as key -> (line, value text).  A key is a key name,
    or for a pattern key the tuple of names in its holes (see ``_holes``); an
    unknown or repeated key, and a written key without the pattern's shape,
    are errors."""
    spec = _SCHEMA[block.name]
    if spec.sep == "=":
        (pattern,) = spec.keys
    out: dict = {}
    for lineno, line in block.entries:
        if spec.sep not in line:
            raise ParseError(f"expected '<key>{spec.sep}<value>' in {block.name!r}: {line!r}", line=lineno)
        written, _, value = line.partition(spec.sep)
        key = written = written.strip()
        if spec.sep == "=":
            key = _holes(pattern, written)
            if key is None:
                example = pattern.format("e1", "e2")
                raise ParseError(f"{block.name} entries look like '{example} = ...': {line!r}", line=lineno)
        elif key not in spec.keys:
            raise ParseError(f"unknown key {key!r} in {block.name!r}", line=lineno)
        if key in out:
            raise ParseError(f"duplicate entry {written!r} in {block.name!r}", line=lineno)
        out[key] = (lineno, value.strip())
    return out


def _check_companions(subject: str, requires: tuple[str, ...], entries: dict, line: int):
    for companion in requires:
        block, _, key = companion.partition(".")
        if block not in entries or (key and key not in entries[block]):
            wanted = f"a {key!r} entry in the {block} block" if key else f"a {block} block"
            raise ParseError(f"{subject} requires {wanted}", line=line)


def _read(name: str, blocks: dict[str, _Block], entries: dict, env: dict) -> None:
    """Check block ``name``'s companions and required keys, read its entries
    and then its child blocks into ``env``, and build its value."""
    block, spec, given = blocks[name], _SCHEMA[name], entries[name]
    _check_companions(f"{name} block", spec.requires, entries, block.line)
    if spec.sep == "=":
        ((_, rule),) = spec.keys.items()
        names = env["basis"]
        values = {}
        for holes, (lineno, text) in given.items():
            for hole in holes:
                if hole not in names:
                    raise ParseError(f"{name} key {hole!r} is not a bialgebra basis name", line=lineno)
            values[tuple(map(names.index, holes))] = _at(lineno, "", rule.parse, text, env)
        if rule.required:
            missing = [basis for i, basis in enumerate(names) if (i,) not in values]
            if missing:
                raise ParseError(f"{name} block misses entries for {missing}", line=block.line)
            values = tuple(values[(i,)] for i in range(len(names)))
        env[name] = values
    else:
        for key, rule in spec.keys.items():
            if rule.required and key not in given:
                raise ParseError(f"{name} block needs {key!r}", line=block.line)
        one_of = [key for key in spec.one_of if key in given]
        if len(one_of) > 1:
            raise ParseError(f"declare at most one of {'/'.join(spec.one_of)}", line=block.line)
        if spec.one_of and not one_of:
            raise ParseError(f"{name} block needs {' or '.join(map(repr, spec.one_of))}",
                             line=block.line)
        for key, rule in spec.keys.items():
            if key not in given:
                env[key] = rule.default
                continue
            lineno, text = given[key]
            _check_companions(f"{key!r} entry", rule.requires, entries, lineno)
            prefix = f"bad {name} {key} {text!r}: " if spec.quoted else ""
            env[key] = _at(lineno, prefix, rule.parse, text, env)
    for child, child_spec in _SCHEMA.items():
        if child_spec.parent == name and child in blocks:
            _read(child, blocks, entries, env)
    if spec.build is not None:
        env[name] = _at(block.line, "", spec.build, env)


def parse_problem(text: str, name: str = "<problem>") -> ProblemFile:
    blocks = _scan_blocks(text)
    if "manifold" not in blocks:
        raise ParseError("problem file needs a manifold block", line=1)
    entries = {block: _entry_map(blocks[block]) for block in blocks}
    env: dict = {}
    for block, spec in _SCHEMA.items():
        if spec.parent == "" and block in blocks:
            _read(block, blocks, entries, env)
    return ProblemFile(
        name=name, chart=env["coords"], poisson=env["poisson"] or env["symplectic"].poisson,
        symplectic=env["symplectic"],
        bialgebra=env.get("bialgebra"), pgmap=env.get("pgmap"), momentum=env.get("momentum"),
        action=env.get("action"), levelset=env.get("levelset"),
        plan=env.get("oracle", SamplePlan()))


# -- built-in catalog -----------------------------------------------------------------


_CATALOG: dict[str, str] = {
    "canonical-r2-rotation": """
# Rotation action on the canonical symplectic plane.
manifold {
  coords: q, p
  symplectic: dq^dp
}
bialgebra {
  basis: e1
}
pgmap {
  e1 = -q*dq - p*dp
}
action {
  e1 = -p*e_q + q*e_p
}
momentum {
  e1 = -1/2*q^2 - 1/2*p^2
}
oracle {
  samples: 100
  seed: 41
  box: -2, 2
}
""",
    "so3-coadjoint": """
# Coadjoint rotations on the dual of so(3) with its linear Poisson structure.
manifold {
  coords: x, y, z
  poisson: z*e_x^e_y - y*e_x^e_z + x*e_y^e_z
}
bialgebra {
  basis: e1, e2, e3
  bracket {
    [e1,e2] = e3
    [e2,e3] = e1
    [e3,e1] = e2
  }
}
pgmap {
  e1 = dx
  e2 = dy
  e3 = dz
}
momentum {
  e1 = x
  e2 = y
  e3 = z
}
oracle {
  samples: 100
  seed: 42
  box: -2, 2
}
""",
    "dressing-linearized": """
# Linearized dressing data: identity momentum map on a dual-algebra chart,
# whose fiber-linear momentum is the projection onto the fiber coordinates.
manifold {
  coords: m1, m2
  poisson: m2*e_m1^e_m2
}
bialgebra {
  basis: e1, e2
  bracket { [e1,e2] = e2 }
}
pgmap {
  e1 = dm1
  e2 = dm2
}
momentum {
  e1 = m1
  e2 = m2
}
oracle {
  samples: 100
  seed: 43
  box: -2, 2
}
""",
    "aff1-cobracket": """
# The nonabelian 2-dimensional bialgebra with nonzero cobracket, acting with
# non-closed images; exercises the cobracket axiom and the ideal-coefficient
# identity with nonzero gamma.
manifold {
  coords: q, p
  poisson: p*e_q^e_p
}
bialgebra {
  basis: e1, e2
  bracket { [e1,e2] = e2 }
  cocycle { d(e2) = e1^e2 }
}
pgmap {
  e1 = dq
  e2 = -p*dq + dp
}
oracle {
  samples: 100
  seed: 44
  box: -2, 2
}
""",
    "hamiltonian-level-set": """
# Linear momentum on the canonical plane with an explicit zero-level
# parametrization; exercises the d_T(J) pipeline and level-set tangency.
manifold {
  coords: q, p
  poisson: e_q^e_p
}
bialgebra {
  basis: e1
}
pgmap {
  e1 = dp
}
momentum {
  e1 = p
}
levelset {
  params: s
  map: s, 0
}
oracle {
  samples: 100
  seed: 45
  box: -2, 2
}
""",
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog(name: str) -> ProblemFile:
    """A built-in, fully checkable example problem."""
    if name not in _CATALOG:
        raise UnknownCatalogError(name, catalog_names())
    return parse_problem(_CATALOG[name], name=name)
