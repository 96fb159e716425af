"""An independent anchor for ``eulab.poly``: ring operations, powers,
substitution and derivations agree with sympy on random small Laurent
polynomials.  Each polynomial is built twice from one list of terms, once
by eulab and once by sympy.  Skipped when sympy is not installed; the
package itself never imports it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.poly import MultiPoly, poly_sum

sympy = pytest.importorskip("sympy")

SYMBOLS = dict(zip("xyz", sympy.symbols("x y z")))

_coef = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


def _exps(lo: int):
    return st.dictionaries(st.sampled_from("xyz"), st.integers(min_value=lo, max_value=3))


def _term_lists(lo: int):
    return st.lists(st.tuples(_coef, _exps(lo)), max_size=4)


def _sympy_term(coef, exps) -> "sympy.Expr":
    c = Fraction(coef)
    factors = (SYMBOLS[v] ** e for v, e in exps.items())
    return sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*factors)


def _both(terms) -> tuple:
    """One polynomial, built by eulab and by sympy from the same terms."""
    ours = poly_sum(MultiPoly.monomial(c, e) for c, e in terms)
    return ours, sympy.Add(*(_sympy_term(c, e) for c, e in terms))


polys = _term_lists(0).map(_both)
laurent = _term_lists(-3).map(_both)


def assert_same(p: MultiPoly, expr) -> None:
    ours = sympy.Add(*(_sympy_term(c, dict(m)) for m, c in p.terms()))
    assert sympy.expand(ours - expr) == 0, (str(p), expr)


@settings(max_examples=60, deadline=None)
@given(laurent, laurent, st.integers(min_value=-3, max_value=3))
def test_ring_operations_match_sympy(pair_p, pair_q, c):
    (p, sp), (q, sq) = pair_p, pair_q
    assert_same(p + q, sp + sq)
    assert_same(p - q, sp - sq)
    assert_same(p * q, sympy.expand(sp * sq))
    assert_same(-p, -sp)
    assert_same(c - p, c - sp)
    assert_same(p * c, sympy.expand(sp * c))


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(min_value=0, max_value=4), _coef.filter(bool), _exps(-3))
def test_powers_match_sympy(pair, k, coef, exps):
    p, sp = pair
    assert_same(p**k, sympy.expand(sp**k))
    # a negative power is defined on a nonzero monomial
    assert_same(MultiPoly.monomial(coef, exps) ** -k, _sympy_term(coef, exps) ** -k)


@settings(max_examples=40, deadline=None)
@given(
    polys,
    st.dictionaries(st.sampled_from("xyz"), laurent, max_size=3),
    st.dictionaries(st.sampled_from("xyz"), st.integers(min_value=-3, max_value=3), max_size=3),
)
def test_substitute_matches_sympy(pair_p, images, consts):
    # sympy substitutes simultaneously only when asked to
    p, sp = pair_p
    got = p.substitute({v: image for v, (image, _) in images.items()})
    want = sp.subs({SYMBOLS[v]: si for v, (_, si) in images.items()}, simultaneous=True)
    assert_same(got, sympy.expand(want))
    want = sp.subs({SYMBOLS[v]: c for v, c in consts.items()}, simultaneous=True)
    assert_same(p.substitute(consts), sympy.expand(want))


@settings(max_examples=40, deadline=None)
@given(
    laurent,
    st.dictionaries(st.sampled_from("xyz"), laurent, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_derivation_matches_sympy(pair, images, steps):
    p, want = pair
    got = p.derivation({v: image for v, (image, _) in images.items()}, steps)
    for _ in range(steps):
        want = sympy.expand(sympy.Add(
            *(sympy.diff(want, SYMBOLS[v]) * si for v, (_, si) in images.items())
        ))
    assert_same(got, want)
