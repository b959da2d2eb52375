"""Block-structured problem files and the built-in example catalog.

A problem file is UTF-8 text made of named blocks::

    manifold {
      coords: q, p
      poisson: e_q^e_p            # or: symplectic: dq^dp  [inverse: ...]
    }
    bialgebra {
      basis: e1, e2
      bracket { [e1,e2] = e2 }
      cocycle { d(e2) = e1^e2 }   # omitted entries default to zero
    }
    pgmap    { e1 = dq  ... }     # one 1-form literal per basis element
    momentum { e1 = p   ... }     # polynomial components of J
    action   { e1 = -e_q ... }    # generator vector fields
    levelset { params: s
               map: s, 0 }        # zero-level parametrization, one polynomial
                                  # per manifold coordinate
    oracle   { samples: 100; seed: 7; box: -2, 2; fd_step: 1/1000000 }

``#`` starts a comment; any block or key not shown here is a ParseError.
Bracket and cocycle entries take rational-linear combinations such as
``e3``, ``2 e1 + 1/2 e2`` or ``2 e2^e3``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bialgebra import LieBialgebra
from .chart import Chart, Multivector
from .errors import ParseError, UnknownCatalogError
from .oracle import DEFAULT_BOX, DEFAULT_FD_STEP, DEFAULT_SAMPLES, DEFAULT_SEED, SamplePlan
from .parser import _tokenize, parse_form, parse_multivector, parse_poly
from .poisson import PoissonStructure, SymplecticForm
from .reduction import MomentumMapData, PGMap
from .tangent import CoordinateMap


@dataclass
class ProblemFile:
    name: str
    chart: Chart
    poisson: PoissonStructure | None = None
    symplectic: SymplecticForm | None = None
    bialgebra: LieBialgebra | None = None
    pgmap: PGMap | None = None
    momentum: MomentumMapData | None = None
    action: tuple[Multivector, ...] | None = None
    levelset: CoordinateMap | None = None
    plan: SamplePlan = SamplePlan.uniform()
    fd_step: Fraction = DEFAULT_FD_STEP

    @cached_property
    def poisson_structure(self) -> PoissonStructure:
        """The declared Poisson structure, or the symplectic form's inverse,
        built and Jacobi-checked on first access."""
        if self.poisson is not None:
            return self.poisson
        if self.symplectic is not None:
            return self.symplectic.poisson()
        raise ParseError(f"problem {self.name!r} declares neither a poisson nor a symplectic block")


# -- raw block scanner ---------------------------------------------------------


@dataclass
class _Block:
    name: str
    line: int
    entries: list[tuple[int, str]]
    children: dict[str, "_Block"]


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


_BRACES = re.compile(r"([{}])")


# The child blocks each block may hold ("" is the file itself).
_CHILD_BLOCKS = {
    "": ("manifold", "bialgebra", "pgmap", "momentum", "action", "levelset", "oracle"),
    "bialgebra": ("bracket", "cocycle"),
}


def _scan_blocks(text: str) -> dict[str, _Block]:
    """Brace-aware block scanner.  A block opens with ``name {`` (content may
    continue on the same line) and closes with ``}``; entries may share a
    line when separated by ``;``, also with the name of a block that opens
    after them."""
    root: dict[str, _Block] = {}
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
        line = _strip_comment(raw)
        buffer = ""
        for segment in _BRACES.split(line):
            if segment == "{":
                entries, _, name = buffer.rpartition(";")
                flush(entries, lineno)
                name = name.strip()
                if not name.isidentifier():
                    raise ParseError(f"bad block name {name!r}", line=lineno)
                parent = stack[-1].name if stack else ""
                if name not in _CHILD_BLOCKS.get(parent, ()):
                    where = f" in {parent!r}" if parent else ""
                    raise ParseError(f"unknown block {name!r}{where}", line=lineno)
                block = _Block(name, lineno, [], {})
                holder = stack[-1].children if stack else root
                if name in holder:
                    raise ParseError(f"duplicate block {name!r}", line=lineno)
                holder[name] = block
                stack.append(block)
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
    return root


def _entry_map(block: _Block, sep: str,
               keys: tuple[str, ...] | None = None) -> dict[str, tuple[int, str]]:
    """The block's ``key<sep>value`` entries; with ``keys``, any other key is an error."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in block.entries:
        if sep not in line:
            raise ParseError(f"expected '<key>{sep}<value>' in {block.name!r}: {line!r}", line=lineno)
        key, _, value = line.partition(sep)
        key = key.strip()
        value = value.strip()
        if keys is not None and key not in keys:
            raise ParseError(f"unknown key {key!r} in {block.name!r}", line=lineno)
        if key in out:
            raise ParseError(f"duplicate entry {key!r} in {block.name!r}", line=lineno)
        out[key] = (lineno, value)
    return out


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# -- rational-linear combinations ------------------------------------------------


def _parse_combo(text: str, names: tuple[str, ...], wedge: bool, lineno: int):
    """Parse ``2 e1^e2 - 1/2 e2^e3`` style combinations.

    Returns a dict keyed by basis index (wedge=False) or ordered index pair.
    """
    tokens = _tokenize(text)
    result: dict = {}
    i = 0

    def err(msg, tok):
        raise ParseError(f"{msg} in {text!r}", line=lineno) from None

    sign = Fraction(1)
    expect_term = True
    while tokens[i].kind != "end":
        tok = tokens[i]
        if tok.kind == "op" and tok.text in "+-":
            sign = Fraction(1) if tok.text == "+" else Fraction(-1)
            i += 1
            expect_term = True
            continue
        coeff = Fraction(1)
        if tok.kind == "int":
            coeff = Fraction(int(tok.text))
            i += 1
            if tokens[i].kind == "op" and tokens[i].text == "/":
                i += 1
                if tokens[i].kind != "int":
                    err("expected integer denominator", tokens[i])
                coeff /= int(tokens[i].text)
                i += 1
            if tokens[i].kind == "op" and tokens[i].text == "*":
                i += 1
        tok = tokens[i]
        if tok.kind != "ident":
            if coeff == 0:
                expect_term = False
                continue  # a bare 0 term
            err("expected a basis symbol", tok)
        if tok.text not in names:
            err(f"unknown basis symbol {tok.text!r}", tok)
        first = names.index(tok.text)
        i += 1
        if wedge:
            if not (tokens[i].kind == "op" and tokens[i].text == "^"):
                err("expected '^' between basis symbols", tokens[i])
            i += 1
            tok = tokens[i]
            if tok.kind != "ident" or tok.text not in names:
                err("expected a basis symbol after '^'", tok)
            second = names.index(tok.text)
            i += 1
            key = (first, second)
        else:
            key = first
        result[key] = result.get(key, Fraction(0)) + sign * coeff
        sign = Fraction(1)
        expect_term = False
    if expect_term and result:
        raise ParseError(f"dangling sign in {text!r}", line=lineno)
    return result


# -- block interpreters ------------------------------------------------------------


def _load_manifold(block: _Block):
    entries = _entry_map(block, ":", ("coords", "poisson", "symplectic", "inverse"))
    if "coords" not in entries:
        raise ParseError("manifold block needs 'coords'", line=block.line)
    coords = _split_names(entries["coords"][1])
    chart = Chart("M", coords)
    has_poisson = "poisson" in entries
    has_symplectic = "symplectic" in entries
    if has_poisson and has_symplectic:
        raise ParseError("declare at most one of poisson/symplectic", line=block.line)
    if not has_poisson and not has_symplectic:
        raise ParseError("manifold block needs 'poisson' or 'symplectic'", line=block.line)
    poisson = symplectic = None
    if has_poisson:
        lineno, text = entries["poisson"]
        try:
            bivector = parse_multivector(text, chart, degree=2)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        poisson = PoissonStructure.from_bivector(bivector)
    else:
        lineno, text = entries["symplectic"]
        try:
            two_form = parse_form(text, chart, degree=2)
            inverse = None
            if "inverse" in entries:
                inv_line, inv_text = entries["inverse"]
                inverse = parse_multivector(inv_text, chart, degree=2)
            symplectic = SymplecticForm.from_two_form(two_form, inverse)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return chart, poisson, symplectic


def _load_bialgebra(block: _Block) -> LieBialgebra:
    entries = _entry_map(block, ":", ("basis",))
    if "basis" not in entries:
        raise ParseError("bialgebra block needs 'basis'", line=block.line)
    names = _split_names(entries["basis"][1])
    brackets = {}
    if "bracket" in block.children:
        for lineno, line in block.children["bracket"].entries:
            lhs, _, rhs = line.partition("=")
            lhs = lhs.strip()
            if not (lhs.startswith("[") and lhs.endswith("]")):
                raise ParseError(f"bracket entries look like '[e1,e2] = ...': {line!r}", line=lineno)
            pair = _split_names(lhs[1:-1])
            if len(pair) != 2 or any(p not in names for p in pair):
                raise ParseError(f"unknown bracket pair {lhs!r}", line=lineno)
            i, j = names.index(pair[0]), names.index(pair[1])
            combo = _parse_combo(rhs.strip(), names, wedge=False, lineno=lineno)
            vec = [Fraction(0)] * len(names)
            for k, c in combo.items():
                vec[k] = c
            brackets[(i, j)] = tuple(vec)
    cobrackets = {}
    if "cocycle" in block.children:
        for lineno, line in block.children["cocycle"].entries:
            lhs, _, rhs = line.partition("=")
            lhs = lhs.strip()
            if not (lhs.startswith("d(") and lhs.endswith(")")):
                raise ParseError(f"cocycle entries look like 'd(e1) = ...': {line!r}", line=lineno)
            name = lhs[2:-1].strip()
            if name not in names:
                raise ParseError(f"unknown basis symbol {name!r}", line=lineno)
            combo = _parse_combo(rhs.strip(), names, wedge=True, lineno=lineno)
            if combo:
                cobrackets[names.index(name)] = combo
    return LieBialgebra(names, brackets, cobrackets)


def _load_keyed_forms(block: _Block, bialgebra: LieBialgebra, chart: Chart, kind: str):
    entries = _entry_map(block, "=")
    out = {}
    for key, (lineno, text) in entries.items():
        if key not in bialgebra.basis:
            raise ParseError(f"{block.name} key {key!r} is not a bialgebra basis name", line=lineno)
        try:
            if kind == "form":
                out[key] = parse_form(text, chart, degree=1)
            elif kind == "vector":
                out[key] = parse_multivector(text, chart, degree=1)
            else:
                out[key] = parse_poly(text, chart.coords)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    missing = [name for name in bialgebra.basis if name not in out]
    if missing:
        raise ParseError(f"{block.name} block misses entries for {missing}", line=block.line)
    return tuple(out[name] for name in bialgebra.basis)


def _load_levelset(block: _Block, chart: Chart) -> CoordinateMap:
    entries = _entry_map(block, ":", ("params", "map"))
    if "params" not in entries or "map" not in entries:
        raise ParseError("levelset block needs 'params' and 'map'", line=block.line)
    params = _split_names(entries["params"][1])
    source = Chart("S", params)
    lineno, text = entries["map"][0], entries["map"][1]
    pieces = [p.strip() for p in text.split(",")]
    if len(pieces) != chart.dim:
        raise ParseError(
            f"levelset map needs {chart.dim} components, got {len(pieces)}", line=lineno
        )
    try:
        comps = tuple(parse_poly(piece, params) for piece in pieces)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from exc
    return CoordinateMap(source, chart, comps)


def _positive(value):
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _interval(text: str) -> tuple[Fraction, Fraction]:
    pieces = _split_names(text)
    if len(pieces) != 2:
        raise ValueError("box takes 'lo, hi'")
    lo, hi = Fraction(pieces[0]), Fraction(pieces[1])
    if lo > hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    return lo, hi


def _load_oracle(block: _Block) -> tuple[SamplePlan, Fraction]:
    """Sampling plan and finite-difference step; a bad value is a ParseError
    on its entry's line."""
    entries = _entry_map(block, ":", ("samples", "seed", "box", "fd_step"))

    def read(key, convert, default):
        if key not in entries:
            return default
        lineno, text = entries[key]
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            detail = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise ParseError(f"bad oracle {key} {text!r}: {detail}", line=lineno) from exc

    samples = read("samples", lambda text: _positive(int(text)), DEFAULT_SAMPLES)
    seed = read("seed", int, DEFAULT_SEED)
    lo, hi = read("box", _interval, DEFAULT_BOX)
    fd_step = read("fd_step", lambda text: _positive(Fraction(text)), DEFAULT_FD_STEP)
    return SamplePlan.uniform(samples, seed, lo, hi), fd_step


def parse_problem(text: str, name: str = "<problem>") -> ProblemFile:
    blocks = _scan_blocks(text)
    if "manifold" not in blocks:
        raise ParseError("problem file needs a manifold block", line=1)
    chart, poisson, symplectic = _load_manifold(blocks["manifold"])
    problem = ProblemFile(name=name, chart=chart, poisson=poisson, symplectic=symplectic)
    if "bialgebra" in blocks:
        problem.bialgebra = _load_bialgebra(blocks["bialgebra"])
    if "pgmap" in blocks:
        if problem.bialgebra is None:
            raise ParseError("pgmap block requires a bialgebra block", line=blocks["pgmap"].line)
        images = _load_keyed_forms(blocks["pgmap"], problem.bialgebra, chart, "form")
        problem.pgmap = PGMap(problem.bialgebra, chart, images)
    if "momentum" in blocks:
        if problem.bialgebra is None:
            raise ParseError("momentum block requires a bialgebra block", line=blocks["momentum"].line)
        comps = _load_keyed_forms(blocks["momentum"], problem.bialgebra, chart, "poly")
        problem.momentum = MomentumMapData(chart, comps)
    if "action" in blocks:
        if problem.bialgebra is None:
            raise ParseError("action block requires a bialgebra block", line=blocks["action"].line)
        problem.action = _load_keyed_forms(blocks["action"], problem.bialgebra, chart, "vector")
    if "levelset" in blocks:
        problem.levelset = _load_levelset(blocks["levelset"], chart)
    if "oracle" in blocks:
        problem.plan, problem.fd_step = _load_oracle(blocks["oracle"])
    return problem


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


def catalog_text(name: str) -> str:
    if name not in _CATALOG:
        raise UnknownCatalogError(name, catalog_names())
    return _CATALOG[name]
