"""Finite-dimensional Lie bialgebra data with exact structure checks.

Bracket constants are stored for ordered pairs i < j as the coefficient
vector of [e_i, e_j]; the constructor folds (j, i) keys in with a sign flip
and rejects inconsistent or diagonal entries, so antisymmetry is structural.
Cobracket coefficients gamma^(jk)_i are stored per basis element as sparse
rows over ordered pairs j < k.  Every constant is a rational in the one form
of :func:`poissonlift.poly.rational`, so integer constants are ints.

Three exact residual checks certify the data: the bracket Jacobi identity,
the cocycle compatibility of the cobracket with the adjoint action, and the
Jacobi identity of the dual bracket built from gamma.  The three reports
are computed once, on first use, and kept in ``structure_checks``;
``verified`` is their combined verdict, and operations downstream refuse
unverified inputs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from .chart import Chart
from .errors import DimensionMismatchError
from .poisson import PoissonStructure, lie_poisson_bivector
from .poly import Rational, rational
from .report import CheckReport, make_report

PairRow = dict[tuple[int, int], Rational]


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


class LieBialgebra:
    """Bracket and cobracket constants over a named basis.

    The constructor rejects malformed constants; the three structure checks
    run when ``structure_checks`` or ``verified`` is first read."""

    def __init__(self, basis: Sequence[str], brackets: Mapping, cobrackets: Mapping | None = None):
        self.basis = tuple(basis)
        n = self.dim
        if len(set(self.basis)) != n:
            raise ValueError("basis names must be distinct")

        folded: dict[tuple[int, int], tuple[Rational, ...]] = {}
        seen: dict[tuple[int, int], tuple[Rational, ...]] = {}
        for (i, j), coeffs in (brackets or {}).items():
            vec = tuple(rational(c) for c in coeffs)
            if len(vec) != n:
                raise DimensionMismatchError(f"bracket for {(i, j)} needs {n} coefficients")
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatchError(f"bracket key {(i, j)} out of range")
            if i == j:
                if any(c != 0 for c in vec):
                    raise ValueError(f"[e_{i}, e_{i}] must vanish (antisymmetry)")
                continue
            key, signed = ((i, j), vec) if i < j else ((j, i), tuple(-c for c in vec))
            if key in seen and seen[key] != signed:
                raise ValueError(
                    f"bracket constants for pair {key} violate antisymmetry"
                )
            seen[key] = signed
            if any(c != 0 for c in signed):
                folded[key] = signed
        self._brackets = folded

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
    def structure_checks(self) -> tuple[CheckReport, CheckReport, CheckReport]:
        """The Jacobi, cocycle and co-Jacobi reports, computed on first use."""
        return self.check_jacobi(), self.check_cocycle(), self.check_cojacobi()

    @property
    def verified(self) -> bool:
        """Whether all three structure checks pass."""
        return all(rep.passed for rep in self.structure_checks)

    # -- accessors -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, i: int, j: int) -> tuple[Rational, ...]:
        """Coefficient vector of [e_i, e_j]."""
        if i == j:
            return (0,) * self.dim
        if i < j:
            return self._brackets.get((i, j), (0,) * self.dim)
        return tuple(-c for c in self.bracket(j, i))

    def cobracket_row(self, i: int) -> PairRow:
        return dict(self._cobrackets.get(i, {}))

    def _vector(self, xs: Sequence) -> tuple[Rational, ...]:
        vec = tuple(rational(x) for x in xs)
        if len(vec) != self.dim:
            raise DimensionMismatchError(f"expected {self.dim} coefficients, got {len(vec)}")
        return vec

    def cobracket_apply(self, xs: Sequence) -> PairRow:
        """Linear extension of the cobracket; result over ordered pairs j < k."""
        vec = self._vector(xs)
        acc: PairRow = {}
        for i, xi in enumerate(vec):
            if xi == 0:
                continue
            for (j, k), c in self._cobrackets.get(i, {}).items():
                _wedge_add(acc, j, k, xi * c)
        return _prune(acc)

    # -- structure checks ------------------------------------------------------

    def check_jacobi(self) -> CheckReport:
        """Residual sum over cyclic [[e_i, e_j], e_k] for every index triple."""
        n = self.dim
        residuals: dict[str, Rational] = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket(a, b)
                        for m, cm in enumerate(inner):
                            if cm == 0:
                                continue
                            for l, cl in enumerate(self.bracket(m, c)):
                                total[l] += cm * cl
                    for l in range(n):
                        if total[l] != 0:
                            residuals[f"jacobi[{self.basis[i]},{self.basis[j]},{self.basis[k]} -> {self.basis[l]}]"] = total[l]
        return make_report(
            "bialgebra-jacobi",
            "cyclic sum of [[e_i, e_j], e_k] vanishes",
            residuals,
        )

    def _adjoint_on_pairs(self, i: int, row: PairRow) -> PairRow:
        """ad_(e_i) acting on an element of the exterior square."""
        acc: PairRow = {}
        for (j, k), c in row.items():
            for m, cm in enumerate(self.bracket(i, j)):
                _wedge_add(acc, m, k, c * cm)
            for m, cm in enumerate(self.bracket(i, k)):
                _wedge_add(acc, j, m, c * cm)
        return _prune(acc)

    def check_cocycle(self) -> CheckReport:
        """Residual of delta([e_i, e_j]) - ad_i delta(e_j) + ad_j delta(e_i)."""
        residuals: dict[str, Rational] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                acc: PairRow = {}
                for m, cm in enumerate(self.bracket(i, j)):
                    if cm == 0:
                        continue
                    for (a, b), c in self._cobrackets.get(m, {}).items():
                        _wedge_add(acc, a, b, cm * c)
                for (a, b), c in self._adjoint_on_pairs(i, self._cobrackets.get(j, {})).items():
                    _wedge_add(acc, a, b, -c)
                for (a, b), c in self._adjoint_on_pairs(j, self._cobrackets.get(i, {})).items():
                    _wedge_add(acc, a, b, c)
                for (a, b), c in _prune(acc).items():
                    residuals[
                        f"cocycle[{self.basis[i]},{self.basis[j]} -> {self.basis[a]}^{self.basis[b]}]"
                    ] = c
        return make_report(
            "bialgebra-cocycle",
            "delta([x, y]) = ad_x delta(y) - ad_y delta(x)",
            residuals,
        )

    def dual(self) -> "LieBialgebra":
        """Swap roles: gamma becomes the bracket, the bracket becomes gamma."""
        brackets = {}
        for i in range(self.dim):
            for (j, k), c in self._cobrackets.get(i, {}).items():
                vec = list(brackets.get((j, k), (0,) * self.dim))
                vec[i] = c
                brackets[(j, k)] = tuple(vec)
        cobrackets = {}
        for (i, j), vec in self._brackets.items():
            for k, c in enumerate(vec):
                if c == 0:
                    continue
                row = cobrackets.setdefault(k, {})
                row[(i, j)] = row.get((i, j), 0) + c
        return LieBialgebra(self.basis, brackets, cobrackets)

    def check_cojacobi(self) -> CheckReport:
        """Jacobi identity of the dual bracket built from the cobracket rows."""
        rep = self.dual().check_jacobi()
        return CheckReport(
            check_id="bialgebra-cojacobi",
            identity="dual bracket from cobracket rows satisfies Jacobi",
            verdict=rep.verdict,
            residuals=rep.residuals,
            samples=rep.samples,
        )

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieBialgebra):
            return NotImplemented
        return (
            self.basis == other.basis
            and self._brackets == other._brackets
            and self._cobrackets == other._cobrackets
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"LieBialgebra(basis={self.basis}, verified={self.verified})"


def abelian_bialgebra(names: Sequence[str]) -> LieBialgebra:
    return LieBialgebra(tuple(names), {}, {})


def so3_bialgebra() -> LieBialgebra:
    """Rotation algebra with zero cobracket: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    return LieBialgebra(
        ("e1", "e2", "e3"),
        {
            (0, 1): (0, 0, 1),
            (1, 2): (1, 0, 0),
            (2, 0): (0, 1, 0),
        },
        {},
    )


def lie_poisson(b: LieBialgebra, chart: Chart) -> PoissonStructure:
    """Linear Poisson structure on a chart of the dual: {x_i, x_j} = c^k_(ij) x_k."""
    if chart.dim != b.dim:
        raise DimensionMismatchError(
            f"chart of dim {chart.dim} does not match bialgebra of dim {b.dim}"
        )
    constants = {key: vec for key, vec in b._brackets.items()}
    bivector = lie_poisson_bivector(chart, constants)
    return PoissonStructure(bivector)
