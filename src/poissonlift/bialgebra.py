"""Finite-dimensional Lie bialgebra data with exact structure checks.

Both structure maps are sparse tables of one shape, each key naming a row of
nonzero constants.  The bracket is ``{(i, j): {m: c}}`` over ordered pairs
i < j with m ascending, so [e_i, e_j] = sum_m c e_m; the cobracket is
``{i: {(j, k): gamma}}`` over ordered pairs j < k, so delta(e_i) = sum gamma
e_j ^ e_k.  The constructor takes both in this form: it folds a reversed key
in with a sign flip and rejects inconsistent or diagonal bracket entries, so
antisymmetry is structural, and drops zero constants.  Every constant is a
rational in the one form of :func:`poissonlift.poly.rational`, so integer
constants are ints.

Three exact residual checks certify the data: the bracket Jacobi identity,
the cocycle compatibility of the cobracket with the adjoint action, and the
Jacobi identity of the dual bracket, whose rows are the cobracket table
transposed.  Both Jacobi checks run one kernel that reads stored rows only;
the cocycle check visits only the basis pairs (i, j) that some cobracket row
enters (of e_i, of e_j or of an e_m in [e_i, e_j]), so a zero cobracket
costs nothing.
The three residual maps are computed once, on first use, and kept in
``structure_residuals``; ``verified`` says that all three are empty, and
operations downstream refuse unverified inputs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from ._value import _Value
from .chart import Chart, Multivector
from .errors import DimensionMismatchError
from .poisson import PoissonStructure
from .poly import Rational, rational

PairRow = dict[tuple[int, int], Rational]
Row = dict[int, Rational]


def _wedge_add(acc: PairRow, j: int, k: int, coeff: Rational) -> None:
    """Accumulate coeff * e_j ^ e_k into a sparse ordered-pair row."""
    if coeff == 0 or j == k:
        return
    if j > k:
        j, k = k, j
        coeff = -coeff
    acc[(j, k)] = acc.get((j, k), 0) + coeff


def _prune(row: PairRow) -> PairRow:
    return {key: rational(c) for key, c in row.items() if c != 0}


def _transpose(table: Mapping) -> dict:
    """``{a: {b: c}}`` as ``{b: {a: c}}``."""
    out: dict = {}
    for a, row in table.items():
        for b, c in row.items():
            out.setdefault(b, {})[a] = c
    return out


def _jacobi_residuals(basis: tuple[str, ...], rows: Mapping[tuple[int, int], Row]) -> dict[str, Rational]:
    """Nonzero components of the cyclic sum of [[e_i, e_j], e_k] over
    i < j < k, for the bracket with sparse rows ``rows``, in (i, j, k, l)
    order.  A term [[e_a, e_b], e_c] = sum_m c^m_ab [e_m, e_c] is read from
    stored rows only, so a triple whose brackets all vanish costs nothing."""
    adjacent: dict[int, dict[int, Row]] = {}  # m -> {c: [e_m, e_c]}
    for (a, b), row in rows.items():
        adjacent.setdefault(a, {})[b] = row
        adjacent.setdefault(b, {})[a] = {m: -c for m, c in row.items()}
    total: dict[tuple[int, int, int, int], Rational] = {}
    for (a, b), row in rows.items():
        for m, cm in row.items():
            for c, outer in adjacent.get(m, {}).items():
                if c == a or c == b:
                    continue
                # the sorted triple, and the sign of [[e_a, e_b], e_c] in its
                # cyclic sum: [[e_k, e_i], e_j] = -[[e_i, e_k], e_j]
                if c > b:
                    triple, coeff = (a, b, c), cm
                elif c > a:
                    triple, coeff = (a, c, b), -cm
                else:
                    triple, coeff = (c, a, b), cm
                for l, cl in outer.items():
                    key = triple + (l,)
                    total[key] = total.get(key, 0) + coeff * cl
    return {
        f"jacobi[{basis[i]},{basis[j]},{basis[k]} -> {basis[l]}]": total[(i, j, k, l)]
        for i, j, k, l in sorted(key for key, value in total.items() if value != 0)
    }


class LieBialgebra(_Value):
    """Bracket and cobracket constants over a named basis.

    The constructor rejects malformed constants; the three structure checks
    run when ``structure_residuals`` or ``verified`` is first read."""

    _fields = ("basis", "_brackets", "_cobrackets")

    def __init__(self, basis: Sequence[str], brackets: Mapping, cobrackets: Mapping | None = None):
        self.basis = tuple(basis)
        n = self.dim
        if len(set(self.basis)) != n:
            raise ValueError("basis names must be distinct")

        folded: dict[tuple[int, int], Row] = {}
        for (i, j), row in (brackets or {}).items():
            if not all(0 <= x < n for x in (i, j, *row)):
                raise DimensionMismatchError(f"bracket entry {(i, j)} has an index out of range")
            nonzero = {m: rational(c) for m, c in sorted(row.items()) if c != 0}
            if i == j:
                if nonzero:
                    raise ValueError(f"[e_{i}, e_{i}] must vanish (antisymmetry)")
                continue
            key, signed = ((i, j), nonzero) if i < j else ((j, i), {m: -c for m, c in nonzero.items()})
            if folded.setdefault(key, signed) != signed:
                raise ValueError(
                    f"bracket constants for pair {key} violate antisymmetry"
                )
        self._brackets = {key: row for key, row in folded.items() if row}

        rows: dict[int, PairRow] = {}
        for i, row in (cobrackets or {}).items():
            if not 0 <= i < n:
                raise DimensionMismatchError(f"cobracket index {i} out of range")
            acc: PairRow = {}
            for (j, k), c in row.items():
                if not (0 <= j < n and 0 <= k < n):
                    raise DimensionMismatchError(f"cobracket key {(j, k)} out of range")
                _wedge_add(acc, j, k, rational(c))
            acc = _prune(acc)
            if acc:
                rows[i] = acc
        self._cobrackets = rows

    @cached_property
    def structure_residuals(self) -> tuple[dict[str, Rational], ...]:
        """The nonzero Jacobi, cocycle and co-Jacobi residuals, computed on
        first use."""
        return self.check_jacobi(), self.check_cocycle(), self.check_cojacobi()

    @property
    def verified(self) -> bool:
        """Whether all three structure checks pass."""
        return not any(self.structure_residuals)

    # -- accessors -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, i: int, j: int) -> Row:
        """[e_i, e_j] as a sparse row {m: c}, m ascending."""
        if i > j:
            return {m: -c for m, c in self._brackets.get((j, i), {}).items()}
        return dict(self._brackets.get((i, j), {}))

    def cobracket_row(self, i: int) -> PairRow:
        return dict(self._cobrackets.get(i, {}))

    # -- structure checks ------------------------------------------------------

    def check_jacobi(self) -> dict[str, Rational]:
        """Residual sum over cyclic [[e_i, e_j], e_k] for every index triple."""
        return _jacobi_residuals(self.basis, self._brackets)

    def _adjoint_on_pairs(self, i: int, row: PairRow) -> PairRow:
        """ad_(e_i) acting on an element of the exterior square."""
        acc: PairRow = {}
        for (j, k), c in row.items():
            for m, cm in self.bracket(i, j).items():
                _wedge_add(acc, m, k, c * cm)
            for m, cm in self.bracket(i, k).items():
                _wedge_add(acc, j, m, c * cm)
        return _prune(acc)

    def check_cocycle(self) -> dict[str, Rational]:
        """Residual of delta([e_i, e_j]) - ad_i delta(e_j) + ad_j delta(e_i)."""
        rows = self._cobrackets
        if not rows:
            return {}
        # a pair no cobracket row enters has a zero residual: neither e_i nor
        # e_j has a row, and no e_m of [e_i, e_j] has one
        touched = {(min(i, j), max(i, j)) for i in rows for j in range(self.dim) if j != i}
        touched.update(key for key, row in self._brackets.items() if any(m in rows for m in row))
        residuals: dict[str, Rational] = {}
        for i, j in sorted(touched):
            acc: PairRow = {}
            for m, cm in self.bracket(i, j).items():
                for (a, b), c in rows.get(m, {}).items():
                    _wedge_add(acc, a, b, cm * c)
            for (a, b), c in self._adjoint_on_pairs(i, rows.get(j, {})).items():
                _wedge_add(acc, a, b, -c)
            for (a, b), c in self._adjoint_on_pairs(j, rows.get(i, {})).items():
                _wedge_add(acc, a, b, c)
            for (a, b), c in _prune(acc).items():
                residuals[
                    f"cocycle[{self.basis[i]},{self.basis[j]} -> {self.basis[a]}^{self.basis[b]}]"
                ] = c
        return residuals

    def check_cojacobi(self) -> dict[str, Rational]:
        """Jacobi identity of the dual bracket, whose rows are the cobracket
        table transposed."""
        return _jacobi_residuals(self.basis, _transpose(self._cobrackets))

    def __repr__(self) -> str:
        return f"LieBialgebra(basis={self.basis}, verified={self.verified})"


def so3_bialgebra() -> LieBialgebra:
    """Rotation algebra with zero cobracket: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    return LieBialgebra(
        ("e1", "e2", "e3"),
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        {},
    )


def lie_poisson(b: LieBialgebra, chart: Chart) -> PoissonStructure:
    """Linear Poisson structure on a chart of the dual: {x_i, x_j} = c^k_(ij) x_k."""
    if chart.dim != b.dim:
        raise DimensionMismatchError(
            f"chart of dim {chart.dim} does not match bialgebra of dim {b.dim}"
        )
    x = [chart.coord_poly(c) for c in chart.coords]
    comps = {}
    for key, row in b._brackets.items():
        poly = chart.zero_poly()
        for k, c in row.items():
            poly = poly + c * x[k]
        comps[key] = poly
    return PoissonStructure(Multivector(chart, 2, comps))
