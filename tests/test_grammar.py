"""Grammar DSL parsing, formal derivatives, and slot labeling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.enumerators import EnumeratorKind, build
from eulab.errors import (
    DuplicateRuleHeadError,
    InvalidPermutationError,
    NotPrefixDecreasingError,
    PolySyntaxError,
    UnknownNameError,
    ValueOutOfRangeError,
)
from eulab.grammar import (
    BUILTIN_SOURCES,
    _slot_labels,
    builtin,
    derive,
    parse_grammar,
    slot_labels,
)
from eulab.perms import PermClass, enumerate_class
from eulab.poly import MultiPoly, parse_poly, poly_sum


def test_parse_two_variable_rules():
    g = parse_grammar("a -> a*al*(z+y); x -> x*y; y -> x*y;")
    assert set(g.heads()) == {"a", "x", "y"}
    assert g.rule_map()["x"] == parse_poly("x*y")
    assert g.rule_map()["a"] == parse_poly("a*al*(z+y)")


def test_parse_five_variable_rules():
    src = "a -> a*al*(u3+u5); u4 -> u1*u2; u3 -> u1*u2; u1 -> u1*u3; u2 -> u2*u4;"
    g = parse_grammar(src)
    assert set(g.heads()) == {"a", "u1", "u2", "u3", "u4"}
    assert g.rule_map()["u1"] == parse_poly("u1*u3")


def test_parse_accepts_comments_and_newlines():
    g = parse_grammar("# doubling rule\nx -> x^2;  # tail comment\n")
    assert g.rule_map()["x"] == parse_poly("x^2")


def test_parse_rejects_missing_separator():
    with pytest.raises(PolySyntaxError) as info:
        parse_grammar("x -> x^2 y")
    assert info.value.code == "SYNTAX_ERROR"
    assert info.value.line == 1


def test_parse_rejects_non_ascii_digits():
    with pytest.raises(PolySyntaxError) as info:
        parse_grammar("a -> a;\nb -> b*x^\u00b2;")
    assert (info.value.line, info.value.column) == (2, 10)


def test_parse_rejects_duplicate_head():
    with pytest.raises(DuplicateRuleHeadError):
        parse_grammar("x -> y; x -> z;")


def test_builtin_names():
    g = builtin("two-variable")
    assert g.rule_map()["y"] == parse_poly("x*y")
    gt = builtin("five-variable")
    assert gt.rule_map()["u2"] == parse_poly("u2*u4")
    # al and z are constants of the first grammar, u5 of the second
    assert "al" not in g.rule_map() and "z" not in g.rule_map()
    assert "u5" not in gt.rule_map()
    with pytest.raises(UnknownNameError):
        builtin("Gx")


def test_builtin_parses_each_rule_set_once():
    assert builtin("five-variable") is builtin("five-variable")
    assert builtin("two-variable") == parse_grammar(BUILTIN_SOURCES["two-variable"])
    # an unknown name is not cached: it raises every time
    for _ in range(2):
        with pytest.raises(UnknownNameError):
            builtin("Gx")


def test_derivative_basics():
    g = builtin("two-variable")
    a = parse_poly("a")
    assert derive(g, a, 0) == a
    assert derive(g, a, 1) == parse_poly("a*al*(z+y)")
    assert derive(g, parse_poly("x*y"), 1) == parse_poly("x*y*(x+y)")
    assert derive(g, a, 2) == parse_poly("a*(al^2*(z+y)^2 + al*x*y)")
    assert derive(g, MultiPoly.const(5), 1) == MultiPoly.zero()


def test_derivative_power_rule_negative_exponent():
    g = parse_grammar("v -> w;")
    # D(v^-2) = -2 v^-3 w
    assert derive(g, parse_poly("v^-2"), 1) == parse_poly("-2*v^-3*w")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
def test_leibniz_on_monomial_pairs(i, j, k):
    g = builtin("two-variable")
    p = parse_poly("x") ** i * parse_poly("y") ** j
    q = parse_poly("a") ** k * parse_poly("y") ** i
    left = derive(g, p * q, 1)
    right = derive(g, p, 1) * q + p * derive(g, q, 1)
    assert left == right


@pytest.mark.parametrize("n", range(0, 6))
def test_two_variable_derivative_matches_enumerator(n):
    g = builtin("two-variable")
    a = parse_poly("a")
    want = a * build(EnumeratorKind.BSE_Z, n).value
    assert derive(g, a, n) == want


@pytest.mark.parametrize("n", range(0, 6))
def test_five_variable_derivative_matches_enumerator(n):
    g = builtin("five-variable")
    a = parse_poly("a")
    want = a * build(EnumeratorKind.PTILDE, n).value
    assert derive(g, a, n) == want


@pytest.mark.parametrize("name", ["two-variable", "five-variable"])
def test_derivative_at_all_ones_counts_arrangements(name):
    # both rule sets count the decreasing-prefix words on n+1 letters,
    # |PRW_(n+1)| = A000522(n) = sum_j n!/j!, with no enumeration
    g = builtin(name)
    p = parse_poly("a")
    for n in range(21):
        want = sum(math.factorial(n) // math.factorial(j) for j in range(n + 1))
        assert sum(c for _, c in p.terms()) == want, n  # the value at all ones
        p = derive(g, p, 1)


@pytest.mark.parametrize("steps, message", [
    (True, "steps must be an int, got True"),
    (2.0, "steps must be an int, got 2.0"),
    ("2", "steps must be an int, got '2'"),
    (-1, "steps must be nonnegative, got -1"),
])
@pytest.mark.parametrize("apply", [
    lambda g, steps: derive(g, "a", steps),
    lambda g, steps: parse_poly("a").derivation(g.rule_map(), steps),
], ids=["derive", "derivation"])
def test_steps_must_be_a_nonnegative_int(apply, steps, message):
    with pytest.raises(ValueOutOfRangeError) as info:
        apply(builtin("two-variable"), steps)
    assert info.value.message == message


def test_string_start_is_parsed():
    g = parse_grammar("a -> a*b;")
    assert derive(g, "a", 1) == parse_poly("a*b")
    assert derive(g, "a*b", 1) == parse_poly("a*b^2")
    with pytest.raises(PolySyntaxError):
        derive(g, "a*", 1)


def test_slot_labels_worked_example():
    lw = slot_labels((7, 5, 4, 1, 2, 3, 9, 8, 6))
    assert lw.labels == ("u5", "u5", "u5", "u3", "u3", "u2", "u1", "u4", "a")
    assert lw.marked == 6
    assert lw.monomial() == parse_poly("al^6 * u1*u2*u3^2*u4*u5^3")


def test_label_exponents_read_the_monomial():
    lw = slot_labels((7, 5, 4, 1, 2, 3, 9, 8, 6))
    assert lw.exponents() == {"u5": 3, "u3": 2, "u2": 1, "u1": 1, "u4": 1, "al": 6}
    assert lw.monomial() == MultiPoly.monomial(1, lw.exponents())


def test_slot_labels_small_cases():
    assert slot_labels((1,)).labels == ("a",)
    assert slot_labels((1,)).marked == 0
    assert slot_labels((1,)).monomial() == MultiPoly.one()

    lw = slot_labels((2, 1))
    assert lw.labels == ("u5", "a")
    assert lw.marked == 1
    assert lw.monomial() == parse_poly("al*u5")


def test_slot_labels_requires_decreasing_prefix():
    with pytest.raises(NotPrefixDecreasingError):
        slot_labels((2, 3, 1))


@pytest.mark.parametrize(
    "word, error, message",
    [
        ((2, 3, 1), NotPrefixDecreasingError,
         "prefix before the value 1 must decrease: (2, 3, 1)"),
        ((2, 2, 1), InvalidPermutationError, "not a permutation of 1..3: (2, 2, 1)"),
        ((2.0, 1), InvalidPermutationError, "not a permutation of 1..2: (2.0, 1)"),
        ((True,), InvalidPermutationError, "not a permutation of 1..1: (True,)"),
        ((), ValueOutOfRangeError, "labeling needs at least one letter"),
    ],
)
def test_slot_labels_rejects_bad_words(word, error, message):
    with pytest.raises(error) as info:
        slot_labels(word)
    assert info.value.message == message


@pytest.mark.parametrize("n", range(1, 9))
def test_label_kernel_matches_the_public_labeling(n):
    for w in enumerate_class(PermClass.PRW, n):
        assert _slot_labels(w) == slot_labels(w), w


@pytest.mark.parametrize("n", range(1, 7))
def test_label_monomials_sum_to_enumerator(n):
    total = poly_sum(
        slot_labels(w).monomial()
        for w in enumerate_class(PermClass.PRW, n + 1)
    )
    assert total == build(EnumeratorKind.PTILDE, n).value
