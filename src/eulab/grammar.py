"""Substitution-rule formal derivatives and the induced letter labeling.

A rule set assigns to some variables a polynomial image; the derivative is
the unique linear operator with D(v) = image(v) for ruled variables,
D(c) = 0 for constants and unruled variables, and the Leibniz product rule
extended to integer (also negative) powers by D(v^k) = k v^(k-1) D(v).

Rule sets parse from a small text form, one ``head -> polynomial ;`` per
rule, with ``#`` comments.  Four rule sets are built in: ``two-variable``
drives the descent/ascent enumerator with a decreasing-prefix marker,
``five-variable`` drives the peak/double-ascent/double-descent refinement,
and ``profile-sym`` and ``profile-prw`` drive the statistic-profile tables
of ``eulab.enumerators``.  Each is parsed on its first ``builtin`` call,
not at import.  The letter labeling below realizes the five-variable rule
set combinatorially, one label per insertion slot.

As in ``eulab.perms``, a word is validated once, at the boundary: the
public ``slot_labels`` checks its word with ``perms.check_prefix_decreasing``
and then calls the kernel ``_slot_labels``, which trusts its caller to hand
it a nonempty decreasing-prefix permutation tuple, e.g. a word from
``enumerate_class``, and validates nothing.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple, Sequence

from .errors import (
    DuplicateRuleHeadError,
    PolySyntaxError,
    UnknownNameError,
    ValueOutOfRangeError,
)
from .perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    PEAK,
    Perm,
    _classify,
    check_prefix_decreasing,
    lrmin_values,
    rlmin_values,
)
from .poly import ExprParser, MultiPoly, _check_steps, parse_poly, tokenize


class Grammar(NamedTuple):
    """An ordered set of substitution rules."""

    rules: tuple  # tuple[tuple[str, MultiPoly], ...]

    def rule_map(self) -> dict:
        return dict(self.rules)

    def heads(self) -> tuple:
        return tuple(h for h, _ in self.rules)


def parse_grammar(source: str) -> Grammar:
    """Parse a rule-set file.

    >>> g = parse_grammar("a -> a*al*(z+y); x -> x*y; y -> x*y;")
    >>> g.heads()
    ('a', 'x', 'y')
    """
    tokens = tokenize(source)
    parser = ExprParser(tokens)
    rules: list[tuple[str, MultiPoly]] = []
    seen: set[str] = set()
    while parser.peek().kind != "EOF":
        head_tok = parser.take()
        if head_tok.kind != "IDENT":
            raise PolySyntaxError(
                f"expected a rule head, found {ExprParser._show(head_tok)}",
                head_tok.line,
                head_tok.column,
            )
        if head_tok.value in seen:
            raise DuplicateRuleHeadError(f"rule head {head_tok.value!r} appears twice")
        seen.add(head_tok.value)
        parser.expect_op("->")
        body = parser.parse_expr()
        parser.expect_op(";")
        rules.append((head_tok.value, body))
    return Grammar(tuple(rules))


BUILTIN_SOURCES = {
    # descent/ascent enumerator with the decreasing-prefix marker z
    "two-variable": "a -> a*al*(z+y); x -> x*y; y -> x*y;",
    # peak (u1,u2), double-ascent (u3), double-descent (u4, u5) refinement
    "five-variable": "a -> a*al*(u3+u5); u4 -> u1*u2; u3 -> u1*u2; u1 -> u1*u3; u2 -> u2*u4;",
    # insertion of the largest letter into every slot of a word of S_n, which
    # ``eulab.enumerators`` reads as statistic profiles (see its docstring)
    "profile-sym": "F -> F*ldd*x*l + f0*pk; f0 -> F*x*l; E -> E*rda*r + e0*pk*x; e0 -> E*r;"
                   " pk -> pk*(idd*x + ida); ida -> pk*x; rda -> pk*x; idd -> pk; ldd -> pk;",
    # the same over decreasing-prefix words: a slot after a left-to-right
    # minimum that is a double descent lies inside the decreasing prefix
    "profile-prw": "F -> F*ldd*x*l; f0 -> F*x*l; E -> E*rda*r + e0*pk*x; e0 -> E*r;"
                   " pk -> pk*(idd*x + ida); ida -> pk*x; rda -> pk*x; idd -> pk;",
}


@cache
def builtin(name: str) -> Grammar:
    """Return one of the built-in rule sets by name, parsed once per process
    (a ``Grammar`` is immutable, so callers share it)."""
    try:
        return parse_grammar(BUILTIN_SOURCES[name])
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SOURCES))
        raise UnknownNameError(f"no built-in rule set {name!r} (known: {known})") from None


def derive(grammar: Grammar, start: MultiPoly | str, steps: int) -> MultiPoly:
    """Apply the derivative ``steps`` times to ``start``, a polynomial or
    its text form; ``steps`` is checked before the text is parsed.

    >>> g = builtin("two-variable")
    >>> str(derive(g, "a", 1))
    'a*al*y + a*al*z'
    """
    _check_steps(steps)
    p = parse_poly(start) if isinstance(start, str) else start
    return p.derivation(grammar.rule_map(), steps)


# -- letter labeling --------------------------------------------------------

LABEL_FINAL = "a"


class LabelWord(NamedTuple):
    """Labels of the insertion slots 2..n+1 of a decreasing-prefix word,
    plus the count of marked letters (minima other than the value 1)."""

    labels: tuple  # one of u1..u5 per slot, then "a" on the final slot
    marked: int

    def exponents(self) -> dict:
        """The exponent map of the labels u1..u5, with the weight variable
        raised to the marked-letter count: the one label-to-exponent map.
        The final slot's ``a`` is excluded so the map matches the word's
        statistic monomial."""
        exps = Counter(lab for lab in self.labels if lab != LABEL_FINAL)
        return {**exps, "al": self.marked}

    def monomial(self) -> MultiPoly:
        """The monomial of ``exponents``."""
        return MultiPoly.monomial(1, self.exponents())


def slot_labels(word: Sequence[int]) -> LabelWord:
    """Label the slots of a word whose prefix ending at 1 is strictly
    decreasing.  Slot ``i`` (2-based) sits immediately before the i-th
    letter; the slot after the last letter is labeled ``a``.

    Each slot gets exactly one label:

    * ``u2`` before a peak, and ``u1`` right after one;
    * ``u3`` before a double ascent;
    * after a double descent, ``u5`` while still inside the decreasing
      prefix (slot at or before the value 1) and ``u4`` past it.

    >>> slot_labels((2, 1)).labels
    ('u5', 'a')
    >>> slot_labels((1,)).labels
    ('a',)
    """
    w = check_prefix_decreasing(word)
    if not w:
        raise ValueOutOfRangeError("labeling needs at least one letter")
    return _slot_labels(w)


def _slot_labels(w: Perm) -> LabelWord:
    """``slot_labels`` of a nonempty permutation tuple whose prefix ending
    at 1 decreases."""
    n = len(w)
    kinds = _classify(w)
    k = w.index(1) + 1  # 1-based position of the value 1
    labels: list[str] = []
    for i in range(2, n + 1):  # slot i, between letters i-1 and i (1-based)
        cur = kinds[i - 1]
        prev = kinds[i - 2]
        if cur == PEAK:
            labels.append("u2")
        elif cur == DOUBLE_ASC:
            labels.append("u3")
        elif prev == PEAK:
            labels.append("u1")
        elif prev == DOUBLE_DESC:
            labels.append("u5" if i <= k else "u4")
        else:  # unreachable: the two letters around a slot always decide it
            raise AssertionError(f"unlabeled slot {i} in {w}")
    labels.append(LABEL_FINAL)
    # the minima other than the value 1, which is both kinds of minimum
    marked = len(lrmin_values(w) | rlmin_values(w)) - 1
    return LabelWord(tuple(labels), marked)
