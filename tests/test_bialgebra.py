"""Structure-constant checks for Lie bialgebras."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonlift import LieBialgebra, abelian_bialgebra, parse_problem, so3_bialgebra
from poissonlift.errors import DimensionMismatchError

from conftest import count_bialgebra_checks, gl_problem


def aff1(lam=1) -> LieBialgebra:
    """[e1,e2] = e2 with cobracket delta(e2) = lam e1^e2."""
    return LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}}, {1: {(0, 1): Fraction(lam)}})


class TestJacobi:
    def test_abelian(self):
        assert abelian_bialgebra(("e1", "e2", "e3")).check_jacobi().verdict == "pass"

    def test_so3_brute_force(self):
        assert so3_bialgebra().check_jacobi().verdict == "pass"

    def test_single_pair_bracket_is_a_lie_algebra(self):
        # [e1,e2] = e1 + e2 and nothing else: the brute-force residual
        # sum_cyc [[e_i,e_j],e_k] vanishes for every triple, because every
        # term contains either [e1+e2, e_k] with k > 2 (zero) or a
        # cancelling pair; the oracle confirms there is nothing to report.
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): {0: 1, 1: 1}}, {})
        report = b.check_jacobi()
        assert report.verdict == "pass"
        assert report.residuals == ()

    def test_failing_bracket_lists_quadruple(self):
        # [e1,e2] = e3, [e1,e3] = e1: the cyclic sum for (e1,e2,e3) is
        # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 - [e1,e2] = -e3.
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}}, {})
        report = b.check_jacobi()
        assert report.verdict == "fail"
        names = [name for name, _ in report.residuals]
        assert "jacobi[e1,e2,e3 -> e3]" in names
        assert dict(report.residuals)["jacobi[e1,e2,e3 -> e3]"] == "-1"

    def test_verified_flag_refuses_bad_data(self):
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}}, {})
        assert not b.verified


class TestAntisymmetry:
    def test_folds_reversed_keys(self):
        b = LieBialgebra(("e1", "e2"), {(1, 0): {1: -1}}, {})
        assert b.bracket(0, 1) == {1: 1}
        assert b.bracket(1, 0) == {1: -1}
        assert b.bracket(1, 1) == {}

    def test_rejects_inconsistent_pairs(self):
        with pytest.raises(ValueError):
            LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}, (1, 0): {1: 1}}, {})

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LieBialgebra(("e1", "e2"), {(0, 0): {0: 1}}, {})

    def test_rejects_out_of_range_row_index(self):
        with pytest.raises(DimensionMismatchError):
            LieBialgebra(("e1", "e2"), {(0, 1): {2: 1}}, {})


class TestCocycle:
    def test_zero_cobracket(self):
        assert so3_bialgebra().check_cocycle().verdict == "pass"

    def test_abelian_any_cobracket(self):
        # with zero bracket the adjoint terms vanish and the residual is 0
        b = LieBialgebra(("e1", "e2", "e3"), {}, {0: {(1, 2): 5}, 2: {(0, 1): Fraction(-7, 3)}})
        assert b.check_cocycle().verdict == "pass"

    @pytest.mark.parametrize("lam", [1, 2, Fraction(-5, 7)])
    def test_two_dimensional_family(self, lam):
        # delta([e1,e2]) = lam e1^e2 and ad_(e1)(lam e1^e2) = lam e1^e2 cancel
        assert aff1(lam).check_cocycle().verdict == "pass"
        assert aff1(lam).verified

    def test_detects_violation(self):
        # so3 brackets with delta(e1) = e1^e2: for the pair (e1, e2) the
        # residual is delta(e3) - ad_(e1)(0) + ad_(e2)(e1^e2)
        # = [e2,e1]^e2 + e1^[e2,e2] = -e3^e2 = e2^e3, which is nonzero.
        b = LieBialgebra(
            ("e1", "e2", "e3"),
            {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
            {0: {(0, 1): 1}},
        )
        report = b.check_cocycle()
        assert report.verdict == "fail"
        assert dict(report.residuals)["cocycle[e1,e2 -> e2^e3]"] == "1"


class TestCojacobi:
    def test_zero_cobracket(self):
        assert abelian_bialgebra(("e1",)).check_cojacobi().verdict == "pass"

    def test_so3_zero_cobracket(self):
        assert so3_bialgebra().check_cojacobi().verdict == "pass"

    def test_two_dimensional(self):
        assert aff1().check_cojacobi().verdict == "pass"

    def test_dual_of_dual_is_identity(self):
        for b in (so3_bialgebra(), aff1(), aff1(Fraction(2, 3))):
            assert b.dual().dual() == b

    def test_dual_swaps_roles(self):
        d = aff1().dual()
        # dual bracket [f1, f2] = gamma^(12)_k f_k = f2
        assert d.bracket(0, 1) == {1: 1}
        # dual cobracket row of f2 comes from c^2_(12) = 1
        assert d.cobracket_row(1) == {(0, 1): Fraction(1)}


def test_fraction_constants_are_stored_in_one_form():
    """Integral Fraction constants are stored as ints, the others stay
    Fractions, and zero constants are dropped, in bracket and cobracket rows."""
    b = LieBialgebra(("e1", "e2"), {(1, 0): {0: Fraction(0), 1: Fraction(-4, 2)}},
                     {1: {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}, 0: {(1, 0): Fraction(1, 3)}})
    assert b.bracket(0, 1) == {1: 2} and all(type(c) is int for c in b.bracket(0, 1).values())
    assert b.bracket(1, 0) == {1: -2} and all(type(c) is int for c in b.bracket(1, 0).values())
    assert b.cobracket_row(1) == {(0, 1): 1} and type(b.cobracket_row(1)[(0, 1)]) is int
    assert b.cobracket_row(0) == {(0, 1): Fraction(-1, 3)}


def test_catalog_bialgebras_fully_verified():
    for b in (abelian_bialgebra(("e1",)), so3_bialgebra(), aff1()):
        assert b.check_jacobi().verdict == "pass"
        assert b.check_cocycle().verdict == "pass"
        assert b.check_cojacobi().verdict == "pass"
        assert b.verified


class TestStructureChecksOnce:
    def test_computed_on_first_use_and_kept(self, monkeypatch):
        calls = count_bialgebra_checks(monkeypatch)
        b = aff1()
        assert calls == []
        assert b.verified
        # check_cojacobi runs the Jacobi kernel on the transposed cobracket
        # table, not check_jacobi on a dual bialgebra
        assert sorted(calls) == ["check_cocycle", "check_cojacobi", "check_jacobi"]
        reports = b.structure_checks
        assert [rep.check_id for rep in reports] == [
            "bialgebra-jacobi", "bialgebra-cocycle", "bialgebra-cojacobi"
        ]
        assert b.verified
        assert len(calls) == 3

    def test_failing_check_means_unverified(self):
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}}, {})
        assert not b.verified
        assert [rep.verdict for rep in b.structure_checks][0] == "fail"


# -- the dense reference ---------------------------------------------------------
#
# The structure checks as they ran over dense coefficient vectors: the triple
# loop of check_jacobi, check_cocycle with _adjoint_on_pairs, and co-Jacobi as
# that loop on the dual's vectors.  They read the constructor's raw input, not
# the stored rows, and list residuals as (name, text) in the order they emit.


def _wedge_add(acc, j, k, coeff):
    if coeff == 0 or j == k:
        return
    if j > k:
        j, k = k, j
        coeff = -coeff
    acc[(j, k)] = acc.get((j, k), 0) + coeff


def _prune(row):
    return {key: c for key, c in row.items() if c != 0}


def _dense_bracket(n, vectors):
    """bracket(a, b) over dense vectors stored for a < b."""
    zero = (0,) * n

    def bracket(a, b):
        if a == b:
            return zero
        if a < b:
            return vectors.get((a, b), zero)
        return tuple(-c for c in vectors.get((b, a), zero))
    return bracket


def _dense_vectors(n, brackets):
    """Raw bracket rows, in either key order, as dense vectors for i < j."""
    vectors = {}
    for (i, j), row in brackets.items():
        if i != j:
            vec = tuple(Fraction(row.get(m, 0)) for m in range(n))
            key, vec = ((i, j), vec) if i < j else ((j, i), tuple(-c for c in vec))
            vectors[key] = vec
    return vectors


def _cobracket_rows(cobrackets):
    """Raw cobracket rows with every pair ordered, in insertion order."""
    rows = {}
    for i, row in cobrackets.items():
        acc = {}
        for (j, k), c in row.items():
            _wedge_add(acc, j, k, Fraction(c))
        if _prune(acc):
            rows[i] = _prune(acc)
    return rows


def _dense_jacobi(basis, bracket):
    n = len(basis)
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [0] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket(a, b)
                    for m, cm in enumerate(inner):
                        if cm == 0:
                            continue
                        for l, cl in enumerate(bracket(m, c)):
                            total[l] += cm * cl
                for l in range(n):
                    if total[l] != 0:
                        residuals.append((f"jacobi[{basis[i]},{basis[j]},{basis[k]} -> {basis[l]}]", str(total[l])))
    return tuple(residuals)


def _dense_cocycle(basis, bracket, rows):
    def adjoint_on_pairs(i, row):
        acc = {}
        for (j, k), c in row.items():
            for m, cm in enumerate(bracket(i, j)):
                _wedge_add(acc, m, k, c * cm)
            for m, cm in enumerate(bracket(i, k)):
                _wedge_add(acc, j, m, c * cm)
        return _prune(acc)

    n = len(basis)
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            acc = {}
            for m, cm in enumerate(bracket(i, j)):
                if cm == 0:
                    continue
                for (a, b), c in rows.get(m, {}).items():
                    _wedge_add(acc, a, b, cm * c)
            for (a, b), c in adjoint_on_pairs(i, rows.get(j, {})).items():
                _wedge_add(acc, a, b, -c)
            for (a, b), c in adjoint_on_pairs(j, rows.get(i, {})).items():
                _wedge_add(acc, a, b, c)
            for (a, b), c in _prune(acc).items():
                residuals.append((f"cocycle[{basis[i]},{basis[j]} -> {basis[a]}^{basis[b]}]", str(c)))
    return tuple(residuals)


def _dense_reference(basis, brackets, cobrackets):
    """(Jacobi, cocycle, co-Jacobi) residual tuples of the dense checks."""
    n = len(basis)
    bracket = _dense_bracket(n, _dense_vectors(n, brackets))
    rows = _cobracket_rows(cobrackets)
    dual = {}
    for i, row in rows.items():
        for key, c in row.items():
            dual.setdefault(key, {})[i] = c
    return (_dense_jacobi(basis, bracket), _dense_cocycle(basis, bracket, rows),
            _dense_jacobi(basis, _dense_bracket(n, _dense_vectors(n, dual))))


# Lie algebras to draw from: (dim, rows over i < j)
_LIE_BLOCKS = (
    (1, {}),
    (2, {(0, 1): {1: 1}}),  # aff(1)
    (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),  # so(3)
    (3, {(0, 1): {2: 1}}),  # Heisenberg
)


def _random_constant(rng, fractions):
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(c, rng.randint(1, 4)) if fractions else c


def _random_rows(rng, n, fractions):
    """Arbitrary bracket rows, each pair at most once, keys in either order,
    with the odd explicit zero."""
    rows = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                row = {m: _random_constant(rng, fractions) for m in rng.sample(range(n), rng.randint(1, n))}
                if rng.random() < 0.2:
                    row[rng.randrange(n)] = 0
                rows[(i, j) if rng.random() < 0.5 else (j, i)] = row
    return rows


def _random_lie_rows(rng, n, fractions):
    """A direct sum of _LIE_BLOCKS of total dimension n in a permuted and
    rescaled basis, keys in either order: a Lie algebra by construction."""
    rows, offset = {}, 0
    while offset < n:
        dim, block = rng.choice([b for b in _LIE_BLOCKS if b[0] <= n - offset])
        for (i, j), row in block.items():
            rows[(offset + i, offset + j)] = {offset + m: c for m, c in row.items()}
        offset += dim
    perm = rng.sample(range(n), n)
    scale = [_random_constant(rng, fractions) for _ in range(n)]
    out = {}
    for (i, j), row in rows.items():
        # e'_i = s_i e_i gives [e'_i, e'_j] = sum_m s_i s_j c^m_ij / s_m e'_m
        moved = {perm[m]: Fraction(scale[i] * scale[j] * c) / scale[m] for m, c in row.items()}
        if rng.random() < 0.5:
            out[(perm[i], perm[j])] = moved
        else:
            out[(perm[j], perm[i])] = {m: -c for m, c in moved.items()}
    return out


def _random_cobrackets(rng, n, fractions):
    """No cobracket, the transpose of a Lie bracket, or arbitrary rows, with
    pairs in either order."""
    kind = rng.randrange(3)
    if kind == 0:
        return {}
    if kind == 1:
        table = {}
        for key, row in _random_lie_rows(rng, n, fractions).items():
            for i, c in row.items():
                table.setdefault(i, {})[key] = c
        return table
    table = {}
    for i in range(n):
        if n > 1 and rng.random() < 0.6:
            table[i] = {tuple(rng.sample(range(n), 2)): _random_constant(rng, fractions)
                        for _ in range(rng.randint(1, 3))}
    return table


def _random_case(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    fractions = rng.random() < 0.5
    brackets = (_random_lie_rows if rng.random() < 0.5 else _random_rows)(rng, n, fractions)
    return tuple(f"e{i + 1}" for i in range(n)), brackets, _random_cobrackets(rng, n, fractions)


def _residuals(b):
    return tuple(rep.residuals for rep in b.structure_checks)


def test_structure_checks_match_the_dense_reference_on_random_bialgebras():
    outcomes = set()
    for seed in range(240):
        basis, brackets, cobrackets = _random_case(seed)
        expected = _dense_reference(basis, brackets, cobrackets)
        assert _residuals(LieBialgebra(basis, brackets, cobrackets)) == expected, seed
        outcomes.update(enumerate(bool(res) for res in expected))
    # each of the three checks passes on some case and fails on another
    assert len(outcomes) == 6


def _gl_rows(n):
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb over E_11, E_12, ..., E_nn."""
    idx = [(a, b) for a in range(n) for b in range(n)]
    rows = {}
    for p, (a, b) in enumerate(idx):
        for q in range(p + 1, len(idx)):
            c, d = idx[q]
            row = {}
            if b == c:
                row[idx.index((a, d))] = 1
            if d == a:
                m = idx.index((c, b))
                row[m] = row.get(m, 0) - 1
            row = {m: v for m, v in sorted(row.items()) if v}
            if row:
                rows[(p, q)] = row
    return rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_checks_match_the_dense_reference_on_gl(n):
    b = parse_problem(gl_problem(n)).bialgebra
    rows = _gl_rows(n)
    pairs = [(i, j) for i in range(b.dim) for j in range(i + 1, b.dim)]
    assert {key: b.bracket(*key) for key in pairs if b.bracket(*key)} == rows
    assert _residuals(b) == _dense_reference(b.basis, rows, {}) == ((), (), ())


def test_structure_checks_match_the_dense_reference_on_a_perturbed_gl():
    rows = _gl_rows(3)
    rows[(0, 1)] = {1: 2}
    cobrackets = {4: {(0, 8): 1, (3, 2): Fraction(-1, 2)}, 2: {(5, 1): 3}}
    basis = tuple(f"E{a}{b}" for a in range(1, 4) for b in range(1, 4))
    expected = _dense_reference(basis, rows, cobrackets)
    assert expected[0] and expected[1]
    assert _residuals(LieBialgebra(basis, rows, cobrackets)) == expected
