"""Exact multivariate Laurent polynomial arithmetic."""

import functools
import operator
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulab.errors import (
    NegativePowerOfNonMonomialError,
    PolySyntaxError,
    UnboundVariableError,
    ValueOutOfRangeError,
    ZeroAtNegativePowerError,
)
from eulab.grammar import builtin, parse_grammar
from eulab.poly import (
    MultiPoly,
    Token,
    _mono_mul,
    monomial_sum,
    parse_poly,
    poly_sum,
    tokenize,
)


def test_constructors():
    assert MultiPoly.zero().is_zero()
    assert not MultiPoly.zero()
    assert MultiPoly.one() == MultiPoly.const(1)
    assert MultiPoly.const(0) == MultiPoly.zero()
    assert MultiPoly.var("x") == parse_poly("x")
    assert MultiPoly.monomial(3, {"x": 2, "y": 1}) == parse_poly("3*x^2*y")
    assert MultiPoly.monomial(Fraction(1, 2), {"x": 1}) == parse_poly("1/2 * x")


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", None])
def test_constructors_reject_inexact_coefficients(bad):
    # the operators reject these too (p + 0.5 is a TypeError)
    for build in (
        lambda: MultiPoly.const(bad),
        lambda: MultiPoly.monomial(bad, {"x": 1}),
        lambda: MultiPoly({(): bad}),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError):
        MultiPoly.var("x") + bad


def test_binomial_square():
    assert parse_poly("(x+y)^2") == parse_poly("x^2 + 2*x*y + y^2")


def test_assembles_degree_two_enumerator():
    al, x, y = (MultiPoly.var(v) for v in ("al", "x", "y"))
    assert al * (x + y) * (al * (x + y)) + al * x * y == parse_poly(
        "al^2*(x+y)^2 + al*x*y"
    )


def test_laurent_unit_cancellation():
    assert parse_poly("(x*y*t^-1)*t") == parse_poly("x*y")
    assert parse_poly("t^-2*t^2") == MultiPoly.one()


def test_negative_power_requires_monomial():
    with pytest.raises(NegativePowerOfNonMonomialError):
        parse_poly("(x+y)^-1")
    with pytest.raises(ZeroAtNegativePowerError):
        MultiPoly.zero() ** -1
    assert parse_poly("(2*x)^-1") == parse_poly("1/2 * x^-1")
    # an int at a negative power is a float: 0.5 would still compare equal
    ((_, coef),) = ((2 * MultiPoly.var("x")) ** -1).terms()
    assert type(coef) is Fraction and coef == Fraction(1, 2)


def test_pow_zero_is_one():
    assert parse_poly("x+y") ** 0 == MultiPoly.one()
    assert MultiPoly.zero() ** 0 == MultiPoly.one()


def test_coefficient_pattern():
    p = parse_poly("al^3*(x+y)^3 + (al + 3*al^2)*x*y*(x+y)")
    assert p.coefficient({"x": 1, "y": 2}) == parse_poly("3*al^3 + 3*al^2 + al")
    assert p.coefficient({"x": 3, "y": 0}) == parse_poly("al^3")
    assert p.coefficient({"x": 9}) == MultiPoly.zero()


def test_symmetry_queries():
    assert parse_poly("x^2 + y^2 + 3*x*y").is_symmetric_in("x", "y")
    assert not parse_poly("x^2 + 2*y^2").is_symmetric_in("x", "y")


def test_rename_merges_exponents():
    p = parse_poly("x*y^2")
    assert p.rename({"y": "x"}) == parse_poly("x^3")
    assert p.rename({"x": "u", "y": "v"}) == parse_poly("u*v^2")


def test_substitute_examples():
    p = parse_poly("al^2*(x+y)^2 + al*x*y")
    assert p.substitute({"al": 1}) == parse_poly("(x+y)^2 + x*y")
    assert parse_poly("-2*al").substitute(
        {"al": parse_poly("1/2 * al")}
    ) == parse_poly("-al")
    forced = parse_poly("u1*u2").substitute({"u2": parse_poly("x*y*t^-1")})
    assert forced.substitute({"u1": parse_poly("t")}) == parse_poly("x*y")


def test_substitute_identity_and_constants():
    p = parse_poly("x^2*y + 3*x - 1/2")
    assert p.substitute({"x": MultiPoly.var("x")}) == p
    v = p.substitute({"x": 2}).substitute({"y": Fraction(1, 3)})
    assert v == MultiPoly.const(p.eval_at({"x": 2, "y": Fraction(1, 3)}))


def test_substitute_is_simultaneous():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = parse_poly("x^2*y + x^-1*y^3")
    # no chain of one-variable maps swaps: it would merge x and y
    assert p.substitute({"x": y, "y": x}) == p.rename({"x": "y", "y": "x"})
    assert p.substitute({"x": y}).substitute({"y": x}) == parse_poly("x^3 + x^2")
    assert p.substitute({}) == p
    # each image is taken as given: its x is not replaced by y
    q = parse_poly("x^2*y + x*y^3")
    assert q.substitute({"x": x + y, "y": x}) == parse_poly("(x+y)^2*x + (x+y)*x^3")


def test_substitute_negative_exponents():
    p = parse_poly("x^-2*y + x")
    assert p.substitute({"x": parse_poly("2*t"), "y": 3}) == parse_poly("3/4*t^-2 + 2*t")
    with pytest.raises(ZeroAtNegativePowerError, match="substituting 0 for 'x' at exponent -2"):
        p.substitute({"x": 0})
    with pytest.raises(ZeroAtNegativePowerError, match="substituting 0 for 'x' at exponent -1"):
        parse_poly("x^-1").eval_at({"x": 0})
    with pytest.raises(NegativePowerOfNonMonomialError):
        p.substitute({"x": parse_poly("t + 1")})
    # a zero image at a positive exponent is plain zero
    assert p.substitute({"y": 0}) == parse_poly("x")


@pytest.mark.parametrize("first", ["a", "z"])  # a sorts before y, z after it
def test_every_negative_power_is_checked_whatever_the_names(first):
    # a zero image of an earlier variable does not hide a later one's
    # negative power: the outcome does not depend on the order of the names
    p = parse_poly(f"{first}*y^-1")
    with pytest.raises(ZeroAtNegativePowerError, match="substituting 0 for 'y' at exponent -1"):
        p.substitute({first: 0, "y": 0})
    with pytest.raises(ZeroAtNegativePowerError, match="substituting 0 for 'y' at exponent -1"):
        p.eval_at({first: 0, "y": 0})
    with pytest.raises(NegativePowerOfNonMonomialError):
        p.substitute({first: 0, "y": parse_poly("x + 1")})


@pytest.mark.parametrize("bad", [0.5, "1", None])
def test_substitute_rejects_inexact_images(bad):
    # checked before any term is touched, also for a variable the
    # polynomial does not hold and on the zero polynomial
    for p, values in (
        (parse_poly("x + y"), {"x": bad}),
        (parse_poly("x + y"), {"x": 1, "y": bad}),
        (parse_poly("x"), {"y": bad}),
        (MultiPoly.zero(), {"x": bad}),
    ):
        with pytest.raises(TypeError):
            p.substitute(values)


def test_eval_at():
    assert parse_poly("(x+y)^3").eval_at({"x": -1, "y": 1}) == 0
    assert parse_poly("x^-2").eval_at({"x": Fraction(1, 2)}) == 4
    with pytest.raises(UnboundVariableError):
        parse_poly("x*y").eval_at({"x": 1})
    with pytest.raises(ZeroAtNegativePowerError):
        parse_poly("x^-1").eval_at({"x": 0})


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", None])
def test_eval_at_rejects_inexact_values(bad):
    # as the constructors do: a float or a string would give an inexact value
    with pytest.raises(TypeError):
        parse_poly("x^2 + 1").eval_at({"x": bad})
    with pytest.raises(TypeError):
        parse_poly("x^-1*y").eval_at({"x": 2, "y": bad})


def test_text_round_trip_examples():
    for src in (
        "x^2 + 2*x*y + y^2",
        "al^4",
        "3*al^2 + 2*al",
        "x*y*t^-1 + 1/2",
        "-x + 1",
        "0",
    ):
        p = parse_poly(src)
        assert parse_poly(str(p)) == p


def test_display_order_graded_lex():
    assert str(parse_poly("y + x + x*y")) == "x*y + x + y"
    assert str(parse_poly("1 + x^2 + x")) == "x^2 + x + 1"
    assert str(MultiPoly.zero()) == "0"


def test_pretty_alpha():
    assert parse_poly("3*al^2 + 2*al").pretty() == "3*α^2 + 2*α"
    assert parse_poly("α^2").pretty() == "α^2"  # unicode accepted on input


def test_json_round_trip():
    p = parse_poly("al^2*(x+y)^2 + al*x*y - 1/2*t^-3")
    payload = p.to_json()
    assert isinstance(payload["terms"], list)
    assert all(set(t) == {"exp", "coef"} for t in payload["terms"])
    assert MultiPoly.from_json(payload) == p
    assert MultiPoly.from_json(MultiPoly.zero().to_json()) == MultiPoly.zero()
    # a plain int coefficient is exact too
    assert MultiPoly.from_json({"terms": [{"exp": {"x": 2}, "coef": -3}]}) == parse_poly("-3*x^2")


@pytest.mark.parametrize(
    "bad",
    [
        {"exp": {"x": 1}, "coef": 0.1},  # a float coefficient
        {"exp": {"x": 1}, "coef": "0.1"},  # a decimal string
        {"exp": {"x": 1}, "coef": True},
        {"exp": {"x": 1.5}, "coef": "1/1"},
        {"exp": {"x": "2"}, "coef": "1/1"},
        {"exp": {"x": True}, "coef": "1/1"},
        {"exp": {"x": 1}, "coef": "1/0"},  # a zero denominator
    ],
)
def test_from_json_takes_only_what_to_json_writes(bad):
    with pytest.raises(TypeError):
        MultiPoly.from_json({"terms": [bad]})


def test_a_constant_hashes_as_its_value():
    for value in (2, 0, Fraction(-1, 2)):
        assert len({MultiPoly.const(value), value}) == 1
    assert hash(MultiPoly.zero()) == hash(0)
    x = MultiPoly.var("x")
    assert hash(x + 1 - x) == hash(1)


def test_syntax_errors_have_position():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x + + y")
    assert info.value.code == "SYNTAX_ERROR"
    assert info.value.line == 1
    with pytest.raises(PolySyntaxError):
        parse_poly("x ^ y")
    with pytest.raises(PolySyntaxError):
        parse_poly("(x + y")
    with pytest.raises(PolySyntaxError):
        parse_poly("x $ y")


@pytest.mark.parametrize(
    "src, column", [("x^\u00b2", 3), ("x^\u0663", 3), ("\u00b2", 1), ("2*x + \u0663", 7)]
)
def test_non_ascii_digits_are_syntax_errors(src, column):
    # str.isdigit is true for both, and int() would even read the Arabic-Indic 3
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(src)
    assert (info.value.line, info.value.column) == (1, column)


# the hand-written scanner that the token table replaced, kept as the oracle
# ASCII only: ``str.isdigit`` is also true for "²" and "٣"
_DIGITS = frozenset("0123456789")


def _tokenize_oracle(text: str) -> list[Token]:
    """Lex a polynomial or rule-set source.  ``#`` starts a comment running
    to end of line.  The Greek spelling of the weight variable is accepted
    as an alias for ``al``."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            num = int(text[start:i])
            den = 1
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1] in _DIGITS:
                i += 1
                dstart = i
                while i < n and text[i] in _DIGITS:
                    i += 1
                den = int(text[dstart:i])
                if den == 0:
                    raise PolySyntaxError("zero denominator", line, col)
            tokens.append(Token("NUM", Fraction(num, den), line, col))
            col += i - start
            continue
        if ch.isalpha() and (ch.isascii() or ch == "α"):
            start = i
            if ch == "α":
                i += 1
                name = "al"
            else:
                while i < n and (text[i].isascii() and (text[i].isalnum() or text[i] == "_")):
                    i += 1
                name = text[start:i]
            tokens.append(Token("IDENT", name, line, col))
            col += i - start
            continue
        if text.startswith("->", i):
            tokens.append(Token("OP", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*^();":
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


def _lex(lexer, text):
    try:
        return lexer(text)
    except PolySyntaxError as err:
        return (str(err), err.line, err.column)


_LEX_PIECES = st.sampled_from(
    list("axyzAZ019/ \t\r\n#+-*^();_$é²٣α") + ["->", "al", "u12", "3/4", "1/0", "# c\n"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LEX_PIECES, max_size=30).map("".join))
@example("x -> x^2 # c")
@example("2/0")
@example("2/ 3")
@example("αx_1α")
def test_tokenize_matches_the_hand_written_scanner(text):
    got, want = _lex(tokenize, text), _lex(_tokenize_oracle, text)
    if isinstance(want, tuple):
        assert got == want
        return
    # the one difference: the old scanner left the column of the end of
    # input at a comment that runs to the end of the last line
    assert got[:-1] == want[:-1]
    assert got[-1][:3] == want[-1][:3]
    assert got[-1].column == len(text) - text.rfind("\n")
    if "#" not in text[text.rfind("\n") + 1:]:
        assert got[-1] == want[-1]


def test_end_of_input_after_a_trailing_comment_is_at_the_true_end():
    for parse, src, column in ((parse_grammar, "x -> x^2 # c", 13), (parse_poly, "x + # c", 8)):
        with pytest.raises(PolySyntaxError) as info:
            parse(src)
        assert (info.value.line, info.value.column) == (1, column)
        assert "end of input" in str(info.value)


def test_poly_sum():
    parts = [parse_poly("x"), parse_poly("y"), parse_poly("x")]
    assert poly_sum(parts) == parse_poly("2*x + y")
    assert poly_sum([]) == MultiPoly.zero()


# small denominators, so that sums and products of fractions turn integral
_coef = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_exp = st.integers(min_value=0, max_value=3)


@st.composite
def small_polys(draw, names="xyz"):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = MultiPoly.zero()
    for _ in range(n_terms):
        exps = {
            v: draw(_exp) for v in draw(st.sets(st.sampled_from(names), max_size=3))
        }
        p = p + MultiPoly.monomial(draw(_coef), exps)
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero() == p
    assert p * MultiPoly.one() == p
    assert p - p == MultiPoly.zero()


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_round_trips_random(p):
    assert parse_poly(str(p)) == p
    assert MultiPoly.from_json(p.to_json()) == p


@settings(max_examples=40, deadline=None)
@given(small_polys(names=["al", "x", "y", "u1"]))
def test_pretty_round_trips_random(p):
    assert parse_poly(p.pretty()) == p


@settings(max_examples=40, deadline=None)
@given(small_polys(), st.integers(min_value=-3, max_value=3))
def test_substitute_constant_matches_eval(p, c):
    q = p.substitute({"x": c, "y": c, "z": c})
    assert q == MultiPoly.const(p.eval_at({v: c for v in p.variables()} or {}))


@st.composite
def _disjoint_maps(draw):
    """A map from some of x, y, z to images that hold none of its variables."""
    domain = sorted(draw(st.sets(st.sampled_from("xyz"), max_size=3)))
    free = [v for v in "xyzu" if v not in domain]
    return {v: draw(small_polys(names=free)) for v in domain}


@settings(max_examples=60, deadline=None)
@given(small_polys(), _disjoint_maps())
def test_a_disjoint_map_is_the_chain_of_its_one_variable_maps(p, images):
    chained = functools.reduce(lambda q, item: q.substitute(dict([item])), images.items(), p)
    assert p.substitute(images) == chained


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_swap_map_is_the_swap_rename(p):
    swap = {"x": MultiPoly.var("y"), "y": MultiPoly.var("x")}
    assert p.substitute(swap) == p.rename({"x": "y", "y": "x"})


def _canonical(c) -> bool:
    # an int when integral, a Fraction only when not, never zero
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def _stored_cleanly(p: MultiPoly) -> bool:
    # canonical coefficients on sorted monomials of distinct variables with
    # nonzero int exponents
    return all(
        _canonical(c) and list(m) == sorted(m) and len({v for v, _ in m}) == len(m)
        and all(type(e) is int and e for _, e in m)
        for m, c in p.terms()
    )


def _operations(p: MultiPoly, q: MultiPoly, c) -> list:
    """The result of every operation on p, q and the scalar c."""
    return [
        p + q, p - q, p * q, -p, p + c, c - p, p * c, p**0, p**1, p**2, p**3,
        MultiPoly.monomial(c or 1, {"x": 1, "y": 2}) ** -2,
        MultiPoly.monomial(c or 1, {"x": 1, "y": -2}) ** 3,
        MultiPoly.monomial(c or 1, {"x": 1, "y": -2}) ** -2,
        p.coefficient({"x": 1}), p.coefficient({"x": 0, "y": 1}),
        p.rename({"y": "x"}), p.rename({"x": "y", "y": "x"}),
        p.substitute({"x": q}), p.substitute({"y": c}), p.substitute({"x": q, "y": c}),
        MultiPoly.from_json(p.to_json()), poly_sum(r for r in (p, q, -p)),
        MultiPoly({(): c}), MultiPoly.monomial(c, {"x": 0}), MultiPoly.const(c),
        MultiPoly.var("x") * c, c * MultiPoly.one(),
        p.derivation({"x": q, "y": MultiPoly.const(c)}),
    ]


# a bool is an int subclass: only the constructor coercion stores it as an int
_scalars = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), _scalars)
def test_every_operation_stores_only_nonzero_fractions(p, q, c):
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    repeated = {"terms": [{"exp": {"x": 1}, "coef": "1/2"}, {"exp": {"x": 1}, "coef": "-1/2"}]}
    for r in _operations(p, q, c):
        assert _stored_cleanly(r), r
    # cancellations leave the empty map, not zero coefficients
    for zero in ((x - y).rename({"y": "x"}), MultiPoly.from_json(repeated), p - p, p * 0):
        assert zero.is_zero() and len(zero) == 0


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), _scalars)
def test_no_operation_changes_its_operands(p, q, c):
    # a result's term map is its own: no operation writes into an operand's
    before = dict(p._terms), dict(q._terms)
    _operations(p, q, c)
    assert (dict(p._terms), dict(q._terms)) == before


@pytest.mark.parametrize("key, text", [
    ((("y", 1), ("x", 1)), "x*y"),
    ((("x", 0),), "1"),
    ((("x", 1), ("x", 1)), "x^2"),
    ((("x", 2), ("y", 1), ("x", -2)), "y"),
], ids=["unsorted", "zero-exponent", "repeated-variable", "repeated-to-zero"])
def test_constructor_stores_a_key_in_canonical_form(key, text):
    p = MultiPoly({key: 2})
    assert p == 2 * parse_poly(text)
    assert str(p) == str(2 * parse_poly(text))
    assert _stored_cleanly(p)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_constructors_reject_non_int_exponents(bad):
    # as from_json does; monomial_sum, the unchecked hot path, is not asked
    with pytest.raises(TypeError):
        MultiPoly.monomial(1, {"x": bad})
    with pytest.raises(TypeError):
        MultiPoly({(("x", bad),): 1})


# (coef, exponent map) pairs: zero coefficients and zero exponents, and
# repeated monomials, so that terms cancel and fractions sum to integers
_monomial_terms = st.lists(
    st.tuples(
        st.one_of(st.just(0), _coef),
        st.dictionaries(st.sampled_from("xy"), st.integers(min_value=-1, max_value=2),
                        max_size=2),
    ),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_monomial_terms)
@example([(Fraction(1, 3), {"x": 1}), (Fraction(2, 3), {"x": 1})])  # sums to an int
@example([(2, {"x": 1, "y": 0}), (-2, {"x": 1})])  # cancels to the zero polynomial
def test_monomial_sum_matches_a_sum_of_monomials(terms):
    got = monomial_sum(terms)
    assert got == poly_sum(MultiPoly.monomial(c, exps) for c, exps in terms)
    assert _stored_cleanly(got)


def test_monomial_sum_edges():
    assert monomial_sum([]) == MultiPoly.zero()
    assert monomial_sum([(0, {"x": 1})]).is_zero()
    third = Fraction(1, 3)
    assert [(c, type(c)) for _, c in monomial_sum([(third, {"x": 1})] * 3).terms()] == [(1, int)]
    assert monomial_sum(iter([(1, {"x": 1}), (2, {"y": 1})])) == parse_poly("x + 2*y")


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_monomial_sum_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        monomial_sum([(1, {"x": 1}), (bad, {"y": 1})])


def test_integral_results_are_stored_as_ints():
    half = MultiPoly.monomial(Fraction(1, 2), {"x": 1})
    whole = half + half
    assert [(c, type(c)) for _, c in whole.terms()] == [(1, int)]
    assert [(c, type(c)) for _, c in (whole * Fraction(1, 3)).terms()] == [
        (Fraction(1, 3), Fraction)
    ]
    assert [type(c) for _, c in (whole * Fraction(1, 3) * 3).terms()] == [int]


def _leibniz_oracle(p: MultiPoly, images: dict) -> MultiPoly:
    # the per-term construction: one monomial times one image per ruled variable
    return poly_sum(
        MultiPoly.monomial(coef * e, {**dict(mono), v: e - 1}) * images[v]
        for mono, coef in p.terms()
        for v, e in mono
        if v in images
    )


@st.composite
def laurent_polys(draw):
    terms = draw(st.lists(
        st.tuples(
            _coef,
            st.dictionaries(st.sampled_from("xyzw"), st.integers(min_value=-3, max_value=3)),
        ),
        max_size=4,
    ))
    return poly_sum(MultiPoly.monomial(c, exps) for c, exps in terms)


@settings(max_examples=80, deadline=None)
@given(
    laurent_polys(),
    st.dictionaries(st.sampled_from("xyzw"), laurent_polys(), max_size=4),
    st.integers(min_value=0, max_value=4),
)
def test_derivation_matches_per_term_leibniz(p, images, steps):
    want = p
    for _ in range(steps):
        want = _leibniz_oracle(want, images)
    got = p.derivation(images, steps)
    assert got == want
    assert _stored_cleanly(got)


def test_derivation_at_the_field_width_edge():
    # the exponent bound 60 + 7 * (1 + 9) = 130 is attained: x's rule
    # applied seven times takes x^-60 to x^-130, past the -128 that a field
    # one bit narrower would hold
    p = parse_poly("x^-60*y^60")
    images = {"x": parse_poly("x^-9*y^9"), "y": parse_poly("x^9*y^-9")}
    want = p
    for _ in range(7):
        want = _leibniz_oracle(want, images)
    got = p.derivation(images, 7)
    assert got == want
    assert (("x", -130), ("y", 123)) in dict(got.terms())


def _derived_by_oracle(p: MultiPoly, images: dict, steps: int) -> MultiPoly:
    for _ in range(steps):
        p = _leibniz_oracle(p, images)
    return p


# eight variables: past one unpack chunk at every field width
_WIDE = ("a", "al", "u1", "u2", "u3", "u4", "u5", "x")
# mostly small exponents; a large one widens every field
_wide_exp = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=200)
)


@st.composite
def nonnegative_polys(draw, max_size):
    terms = draw(st.lists(
        st.tuples(_coef, st.dictionaries(st.sampled_from(_WIDE), _wide_exp, max_size=3)),
        max_size=max_size,
    ))
    return poly_sum(MultiPoly.monomial(c, exps) for c, exps in terms)


@settings(max_examples=60, deadline=None)
@given(
    nonnegative_polys(max_size=2),
    st.fixed_dictionaries({v: _wide_exp for v in _WIDE}),
    st.dictionaries(st.sampled_from(_WIDE), nonnegative_polys(max_size=2), max_size=3),
    st.integers(min_value=0, max_value=3),
)
def test_derivation_of_nonnegative_exponents_matches_per_term_leibniz(p, full, images, steps):
    # the term holding every variable gives each of them a field
    p = p + MultiPoly.monomial(1, full)
    got = p.derivation(images, steps)
    assert got == _derived_by_oracle(p, images, steps)
    assert _stored_cleanly(got)


@pytest.mark.parametrize("steps, want", [(4, "a*y^7*z^7"), (5, "a*y^8*z^8")])
def test_derivation_at_the_unbiased_field_width_edge(steps, want):
    # with no negative exponent the fields hold exponents as they are: the
    # bound 3 + 4 * 1 = 7 fills two neighbouring 3-bit fields, and one more
    # step needs a fourth bit in each
    p, images = parse_poly("a*y^3*z^3"), {"a": parse_poly("a*y*z")}
    assert p.derivation(images, steps) == parse_poly(want)
    assert p.derivation(images, steps) == _derived_by_oracle(p, images, steps)


@pytest.mark.parametrize("steps, want", [(1, "x^-1*y^2"), (2, "-x^-3*y^4"), (4, "-15*x^-7*y^8")])
def test_a_negative_image_exponent_takes_the_biased_layout(steps, want):
    # the start has no negative exponent, but the image of x does
    p, images = parse_poly("x"), {"x": parse_poly("x^-1*y^2")}
    assert p.derivation(images, steps) == parse_poly(want)
    assert p.derivation(images, steps) == _derived_by_oracle(p, images, steps)


@pytest.mark.parametrize("p, images", [
    (parse_poly("5"), {"x": parse_poly("x")}),  # a constant start
    (parse_poly("5"), {}),  # no variable at all: fields of no bits
    (parse_poly("x^3*y + x*y^2"), {"x": 2, "y": Fraction(1, 3)}),  # images of reach 0
    (parse_poly("x^2*y + y"), {"x": MultiPoly.zero(), "y": 1}),  # a zero image
])
@pytest.mark.parametrize("steps", [0, 1, 2, 3])
def test_derivation_of_constants_and_by_constant_images(p, images, steps):
    got = p.derivation(images, steps)
    assert got == _derived_by_oracle(p, images, steps)
    assert _stored_cleanly(got)


@pytest.mark.parametrize("image, want", [(2, "4*x*y"), (Fraction(1, 2), "x*y")])
def test_a_scalar_image_is_a_constant(image, want):
    assert parse_poly("x^2*y").derivation({"x": image}) == parse_poly(want)


@pytest.mark.parametrize("bad", [0.5, "x", None])
def test_derivation_rejects_an_inexact_image(bad):
    # named before any step runs, also with no steps and for an unused variable
    for values, steps in (({"x": bad}, 1), ({"y": 1, "x": bad}, 0), ({"t": bad}, 2)):
        with pytest.raises(TypeError, match=f"image of '[xt]' is a {type(bad).__name__},"):
            parse_poly("x^2*y").derivation(values, steps)


@pytest.mark.parametrize("name, n", [("five-variable", 25), ("two-variable", 40)])
def test_deep_derivatives_count_arrangements(name, n):
    # past the benchmark's sizes, on keys of 35 and 30 bits: at all ones the
    # derivative is A000522(n) = sum_j n!/j!
    p = parse_poly("a").derivation(builtin(name).rule_map(), n)
    assert sum(c for _, c in p.terms()) == sum(factorial(n) // factorial(j) for j in range(n + 1))


def _dict_and_sort_product(a: tuple, b: tuple) -> tuple:
    # the monomial product as a dict of exponents, sorted again
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


_monos = st.dictionaries(
    st.sampled_from(["a", "al", "u1", "u2", "x", "y"]),
    st.integers(min_value=-2, max_value=2).filter(bool),
).map(lambda exps: tuple(sorted(exps.items())))


@settings(max_examples=200, deadline=None)
@given(_monos, _monos)
def test_mono_mul_merge_matches_dict_and_sort(a, b):
    assert _mono_mul(a, b) == _dict_and_sort_product(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(_monos, max_size=8))
def test_display_order_matches_a_degree_then_vector_sort(monos):
    # the reference key: total degree, then the exponent tuple over the
    # sorted variables, read through a dict per term; both descending
    p = MultiPoly(dict.fromkeys(monos, 1))
    names = sorted(p.variables())

    def key(mono):
        exps = dict(mono)
        vec = tuple(exps.get(v, 0) for v in names)
        return sum(vec), vec

    assert [m for m, _ in p.terms()] == sorted(set(monos), key=key, reverse=True)


@settings(max_examples=50, deadline=None)
@given(st.lists(_monos, max_size=8), st.integers(min_value=-3, max_value=3))
def test_items_are_the_terms_unsorted(monos, coef):
    p = MultiPoly(dict.fromkeys(monos, coef)) + MultiPoly.var("x")
    items = list(p.items())
    assert sorted(items) == sorted(p.terms())
    assert len(items) == len(p)


@pytest.mark.parametrize("a, b, want", [
    ((("x", 1),), (("x", -1),), ()),  # cancellation to the empty monomial
    ((("x", 1), ("y", 2)), (("x", -1), ("y", -2)), ()),
    ((("a", 1),), (("b", 2),), (("a", 1), ("b", 2))),  # disjoint
    ((("b", 2),), (("a", 1),), (("a", 1), ("b", 2))),
    ((("a", 1), ("c", 3)), (("b", 2), ("d", 4)), (("a", 1), ("b", 2), ("c", 3), ("d", 4))),
    ((("a", 1), ("b", 2)), (("a", 3), ("b", -2)), (("a", 4),)),  # equal variables
    ((), (("x", 1),), (("x", 1),)),
])
def test_mono_mul_edges(a, b, want):
    assert _mono_mul(a, b) == want == _dict_and_sort_product(a, b)


def _rename_by_fold(p: MultiPoly, names: dict) -> MultiPoly:
    # each renamed monomial as the product of its renamed one-pair factors
    return poly_sum(
        MultiPoly({functools.reduce(_mono_mul, (((names.get(v, v), e),) for v, e in m), ()): c})
        for m, c in p.terms()
    )


_laurent_polys = st.dictionaries(
    _monos, st.integers(min_value=-3, max_value=3).filter(bool), max_size=5
).map(MultiPoly)
_renames = st.dictionaries(
    st.sampled_from(["a", "al", "u1", "u2", "x", "y"]), st.sampled_from(["a", "w", "x", "y"])
)


@settings(max_examples=200, deadline=None)
@given(_laurent_polys, _renames)
# targets that collide, exponents that cancel to zero, terms that merge or cancel
@example(parse_poly("x^2*y^-2*u1 + 3*x*y^-1"), {"y": "x", "u1": "a"})
@example(parse_poly("x - y + u1*u2^-1"), {"y": "x", "u2": "u1"})
def test_rename_matches_the_fold(p, names):
    assert p.rename(names) == _rename_by_fold(p, names)


@settings(max_examples=100, deadline=None)
@given(_laurent_polys, _renames)
@example(parse_poly("x^2*y^-2*u1 + 3*x*y^-1"), {"y": "x", "u1": "a"})
def test_rename_is_substitute_by_variables(p, names):
    assert p.rename(names) == p.substitute({v: MultiPoly.var(w) for v, w in names.items()})


def _substitute_per_term(p: MultiPoly, values: dict) -> MultiPoly:
    # the per-term product that the one-pass substitute replaced: each term
    # times the image powers of its mapped variables, one variable at a time
    images = {v: q if isinstance(q, MultiPoly) else MultiPoly.const(q) for v, q in values.items()}
    powers: dict = {}

    def power(v: str, e: int) -> list:
        if (v, e) not in powers:
            if e < 0 and images[v].is_zero():
                raise ZeroAtNegativePowerError(f"substituting 0 for {v!r} at exponent {e}")
            powers[v, e] = list((images[v] ** e).terms())
        return powers[v, e]

    def replaced(mono, coef) -> list:
        pairs = [(tuple(ve for ve in mono if ve[0] not in images), coef)]
        for v, e in mono:
            if v in images:
                pairs = [(_mono_mul(m, pm), c * pc) for m, c in pairs for pm, pc in power(v, e)]
        return pairs

    return poly_sum(MultiPoly({m: c}) for mono, coef in p.terms() for m, c in replaced(mono, coef))


_sub_names = ["a", "x", "y", "z"]
_sub_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(_sub_names), st.integers(min_value=-2, max_value=2).filter(bool))
    .map(lambda exps: tuple(sorted(exps.items()))),
    _coef.filter(bool),
    max_size=4,
).map(MultiPoly)
# zero, a constant (bare or as a polynomial), a variable (so swaps and
# merges), a Laurent monomial, or any polynomial
_sub_images = st.one_of(
    st.just(0),
    _coef,
    _coef.map(MultiPoly.const),
    st.sampled_from(_sub_names).map(MultiPoly.var),
    st.builds(MultiPoly.monomial, _coef.filter(bool),
              st.dictionaries(st.sampled_from(_sub_names), st.integers(min_value=-2, max_value=2))),
    _sub_polys,
)


@settings(max_examples=300, deadline=None)
@given(_sub_polys, st.dictionaries(st.sampled_from(_sub_names), _sub_images, max_size=4))
@example(parse_poly("x^2*y^-1 + 3*x*z - y"), {"x": MultiPoly.var("y"), "y": MultiPoly.var("x")})
@example(parse_poly("x*z^-2 + z^2*a - x^-2"), {"z": MultiPoly.var("x")})
@example(parse_poly("a*x^-1*z + 2*z"), {"a": parse_poly("x + z"), "z": 0, "x": parse_poly("-y")})
def test_substitute_matches_the_per_term_product(p, values):
    images = {v: q if isinstance(q, MultiPoly) else MultiPoly.const(q) for v, q in values.items()}
    # a negative power needs a nonzero monomial image, in every term
    bad = any(v in images and e < 0 and len(images[v]) != 1 for m, _ in p.terms() for v, e in m)
    if bad:
        with pytest.raises((ZeroAtNegativePowerError, NegativePowerOfNonMonomialError)):
            p.substitute(values)
    else:
        got = p.substitute(values)
        assert got == _substitute_per_term(p, values)
        assert _stored_cleanly(got)


def _coefficient_by_scan(p: MultiPoly, pattern: dict) -> MultiPoly:
    # the filter-and-strip scan that the lookup in the split replaced
    return poly_sum(
        MultiPoly({tuple((v, e) for v, e in m if v not in pattern): c})
        for m, c in p.terms()
        if all(dict(m).get(v, 0) == e for v, e in pattern.items())
    )


_split_names = st.lists(st.sampled_from(["a", "al", "u1", "w", "x", "y"]), unique=True, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_laurent_polys, _split_names, st.lists(st.integers(min_value=-2, max_value=2), max_size=4))
@example(parse_poly("x^2*y^-1*a + 3*y*a^2 - x"), ["x", "y"], [2, -1])
@example(parse_poly("x*y + 2"), [], [])
def test_the_coefficient_split_rebuilds_the_polynomial(p, names, exps):
    rows = p.coefficients(names)
    rebuilt = poly_sum(row * MultiPoly.monomial(1, dict(zip(names, e))) for e, row in rows.items())
    assert rebuilt == p
    for e, row in rows.items():
        assert len(e) == len(names) and row and _stored_cleanly(row)
        assert not row.variables() & set(names)
    # every pattern that occurs, and one that may not, read as the old scan
    padded = tuple(exps[: len(names)]) + (0,) * (len(names) - len(exps))
    for e in [*rows, padded]:
        pattern = dict(zip(names, e))
        assert p.coefficient(pattern) == _coefficient_by_scan(p, pattern)


def test_the_split_rejects_a_repeated_variable():
    with pytest.raises(ValueOutOfRangeError, match="repeated variable in \\['x', 'y', 'x'\\]"):
        parse_poly("x*y").coefficients(["x", "y", "x"])
    p = parse_poly("x^2 + 2*y")
    assert p.is_symmetric_in("x", "x") and p.is_symmetric_in("y", "y")
    assert not p.is_symmetric_in("x", "y")


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_a_derivation_that_cancels_stores_no_term(steps):
    p = parse_poly("x*y").derivation({"x": parse_poly("x"), "y": parse_poly("-y")}, steps)
    assert p.is_zero() and len(p) == 0


def test_a_derivation_stores_an_integral_fraction_as_an_int():
    p = parse_poly("1/2*x").derivation({"x": parse_poly("2*x^2")})
    assert [(m, c, type(c)) for m, c in p.terms()] == [((("x", 2),), 1, int)]


@pytest.mark.parametrize("name", ["2x", "", "x y", "α", 3])
def test_every_constructor_rejects_a_name_that_is_not_an_identifier(name):
    # a non-str name is a TypeError, as a non-int exponent is; a str that is
    # no identifier of the text form would not print as it parses
    error, match = (ValueOutOfRangeError, repr(name)) if isinstance(name, str) else (TypeError, "str")
    builds = [
        lambda: MultiPoly.var(name),
        lambda: MultiPoly({((name, 1),): 1}),
        lambda: MultiPoly.monomial(2, {"x": 1, name: 1}),
        lambda: MultiPoly.from_json({"terms": [{"exp": {name: 1}, "coef": "1/1"}]}),
        lambda: parse_poly("x*y").rename({"x": name}),
    ]
    for make in builds:
        with pytest.raises(error, match=re.escape(match)):
            make()


_names = st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True),
                  min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(_names.flatmap(lambda names: small_polys(names=names)))
def test_polys_over_any_valid_names_round_trip(p):
    assert parse_poly(str(p)) == p == parse_poly(p.pretty())


# binary operator -> (binding level, value); a tree is a leaf or (op, left, right)
_OPS = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul)}
_trees = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "al"]), st.fractions(0, 3, max_denominator=2)),
    lambda kids: st.tuples(st.sampled_from(list(_OPS)), kids, kids),
    max_leaves=8,
)


def _shown(tree, floor: int = 1) -> str:
    """The tree with only the parentheses its binding levels need: a left
    operand binds at its operator's level or tighter, a right one tighter."""
    if not isinstance(tree, tuple):
        return str(tree)
    op, left, right = tree
    level = _OPS[op][0]
    text = f"{_shown(left, level)} {op} {_shown(right, level + 1)}"
    return f"({text})" if level < floor else text


def _value(tree) -> MultiPoly:
    if not isinstance(tree, tuple):
        return MultiPoly.var(tree) if isinstance(tree, str) else MultiPoly.const(tree)
    op, left, right = tree
    return _OPS[op][1](_value(left), _value(right))


@settings(max_examples=200, deadline=None)
@given(_trees)
@example(("-", ("-", "x", "y"), "al"))  # x - y - al is (x - y) - al
@example(("-", "x", ("-", "y", "al")))  # shown as x - (y - al)
@example(("+", "x", ("*", "y", "al")))  # x + y * al needs no parentheses
@example(("*", ("+", "x", "y"), "al"))  # shown as (x + y) * al
def test_a_minimally_parenthesized_tree_parses_to_its_value(tree):
    assert parse_poly(_shown(tree)) == _value(tree)
