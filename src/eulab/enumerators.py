"""Statistic-generating polynomials over permutation classes.

Every enumerator sums one monomial per word of a class, with exponents read
off the word's statistic profile and the weight variable ``al`` raised to
the minima count.  The profile multiplicities of a class come from a rule
set, not from its words, and each table is cached, so repeated sums at the
same size compute it only once.  The values are cached too: each ``build``
polynomial, keyed by (kind, class, letters), and each row of
``stirling_eulerian``, keyed by m, is summed once per process.  Every
argument and cap check runs before a cache is read, so a warm value is
rejected exactly as a cold one: a size that is not a plain int, or one
past ``EULAB_MAX_N`` as it reads at the call.

``profile_counts`` reads a class's table off D^(m-1)(f0*e0), the
derivative of a built-in rule set (``profile-sym`` or ``profile-prw`` of
``eulab.grammar``) on m letters.  Inserting the largest letter into a slot
of a word changes its profile by an amount that depends only on the class
of the letter that owns the slot (an ascent slot belongs to the letter on
its right, a descent slot to the letter on its left, the two end slots to
the end letters), so each rule is one kind of letter.  The variables read:

* ``x``: a descent, so asc = m-1-des; ``pk``: a peak, so valleys = peaks+1;
* ``ida``: a double ascent that is not a right-to-left minimum; ``idd``: a
  double descent that is not a left-to-right minimum;
* ``F``, ``f0``: the first letter is, or is not, a double descent; ``ldd``:
  another left-to-right minimum that is a double descent, so lrmin_dd =
  ldd + F;
* ``E``, ``e0``: the last letter is, or is not, a double ascent; ``rda``:
  another right-to-left minimum that is a double ascent, so rlmin_da =
  rda + E;
* ``l``, ``r``: a left-to-right or right-to-left minimum besides the value
  1, so lrmin = 1+l and rlmin = 1+r.

Different monomials can read as one profile (``F`` and ``ldd``, ``E`` and
``rda``), so counts are summed per profile.  The two smaller classes keep
some monomials of the ``profile-sym`` derivative: words with no interior
double descent are those with no ``idd`` or ``ldd``, and the down-up
alternating words on two or more letters those with ``F`` and no ``idd``,
``ldd``, ``ida`` or ``rda``.  The filter runs on the finished derivative
only: a later step can turn ``idd`` or ``ldd`` into ``pk``, so a monomial
pruned early would miss words.  One derivative per rule set and size is
cached, each size one step past the size below, and shared by the classes
that read it.  The empty word is a literal row.  The ``profile-rules``
entry of ``eulab.checks.PROOFS`` compares every table that ``verify_all``
reads with the one counted over the class's enumerated words.

``KINDS`` is the one table of enumerator kinds: each kind names the classes
it may run over (the first is the default) and its exponent map.  ``build``
reads nothing else per kind.  The index of a kind is the size index of its
class: decreasing-prefix words of index n have n+1 letters, words of S_n
have n (see ``perms.letters``).

* ``bse``:   x^des y^asc al^(lrmin+rlmin-2) over decreasing-prefix words;
  symmetric in x, y and homogeneous of degree n.
* ``bse-z``: splits the descents of the same words as
  x^(des-lrmin+1) y^asc z^(lrmin-1), same weight.
* ``ptilde``: (u1 u2)^peaks u3^da u4^dd' u5^(lrmin-1) al^weight over the
  same words, where dd' counts double descents past the decreasing prefix.
* ``se``:    the ``bse`` exponents over all of S_n.
* ``refined``: (u1 u2)^peaks u3^da u4^dd al^weight over a chosen class
  (decreasing-prefix words by default, or S_n).
"""

from __future__ import annotations

import functools
from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .errors import ValueOutOfRangeError
from .grammar import builtin, derive
from .perms import PermClass, StatProfile, _check_cap, _check_class_size, _require_ints, letters
from .poly import MultiPoly, monomial_sum


class EnumeratorKind(Enum):
    BSE = "bse"
    BSE_Z = "bse-z"
    PTILDE = "ptilde"
    SE = "se"
    REFINED = "refined"


class Enumerator(NamedTuple):
    kind: EnumeratorKind
    index: int
    klass: PermClass | None
    value: MultiPoly

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "index": self.index,
            "class": self.klass.value if self.klass else None,
            "value": self.value.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Enumerator":
        """The inverse of ``to_json``.  An index that is not a plain int is
        rejected, and so is a class that ``build`` never records: a kind
        with one class records none, a kind with more records one of its own."""
        _require_ints("Enumerator.from_json", index=payload["index"])
        kind, klass = EnumeratorKind(payload["kind"]), payload.get("class")
        classes = KINDS[kind].classes
        if klass not in ([c.value for c in classes] if len(classes) > 1 else [None]):
            raise ValueOutOfRangeError(f"a {kind.value} enumerator never records class {klass!r}")
        return cls(kind, payload["index"], PermClass(klass) if klass else None,
                   MultiPoly.from_json(payload["value"]))


# class -> (built-in rule set, the monomials of its derivative that the
# class keeps, or None for all); see the module docstring
_PROFILE_RULES = {
    PermClass.SYM: ("profile-sym", None),
    PermClass.PRW: ("profile-prw", None),
    PermClass.NDD_INTERIOR: ("profile-sym", lambda e, m: not e.keys() & {"idd", "ldd"}),
    PermClass.ALT_DOWN_UP: (
        "profile-sym",
        lambda e, m: m < 2 or ("F" in e and not e.keys() & {"idd", "ldd", "ida", "rda"}),
    ),
}

_EMPTY_WORD = StatProfile(*(0,) * len(StatProfile._fields))


@functools.cache
def _derivative(rules: str, m: int) -> MultiPoly:
    """D^(m-1)(f0*e0) under a built-in rule set, for m >= 1 letters: one
    step past the derivative on m - 1 letters."""
    if m == 1:
        return MultiPoly.monomial(1, {"f0": 1, "e0": 1})
    return derive(builtin(rules), _derivative(rules, m - 1), 1)


def _profile(e: dict, m: int) -> StatProfile:
    """The profile of the words on m letters that a monomial's exponent map
    ``e`` counts."""
    des, peaks, ida, idd = e.get("x", 0), e.get("pk", 0), e.get("ida", 0), e.get("idd", 0)
    rlmin_da, lrmin_dd = e.get("rda", 0) + e.get("E", 0), e.get("ldd", 0) + e.get("F", 0)
    return StatProfile(m, des, m - 1 - des, peaks, peaks + 1, ida + rlmin_da, idd + lrmin_dd,
                       1 + e.get("l", 0), 1 + e.get("r", 0), ida, idd, rlmin_da, lrmin_dd)


@functools.lru_cache(maxsize=None, typed=True)
def profile_counts(tag: PermClass, n: int) -> tuple:
    """Multiplicity of each statistic profile over a class on n letters, as
    a sorted tuple of (StatProfile, count) pairs, read off a rule-set
    derivative (see the module docstring); no word is generated.  A size
    past the enumeration cap, or not a plain int, is rejected before any
    step; the cache is typed, so ``2.0`` never reads the table of ``2``."""
    _check_class_size(tag, n)
    if n == 0:
        return ((_EMPTY_WORD, 1),)
    rules, keep = _PROFILE_RULES[tag]
    counts = {}
    for mono, c in _derivative(rules, n).items():
        e = dict(mono)
        if keep is None or keep(e, n):
            s = _profile(e, n)
            counts[s] = counts.get(s, 0) + c
    return tuple(sorted(counts.items()))


def profile_sum(tag: PermClass, n: int, exponents) -> MultiPoly:
    """Sum one monomial per member of a class on n letters, its exponents
    read off the member's profile; an exponent map that returns None drops
    the member.

    The cap is checked here as well as in ``profile_counts``, because a
    cached profile table skips that check: a lower cap set after the table
    was filled still applies."""
    _check_cap(n)
    maps = ((c, exponents(s)) for s, c in profile_counts(tag, n))
    return monomial_sum((c, exps) for c, exps in maps if exps is not None)


class KindSpec(NamedTuple):
    classes: tuple  # the classes a kind may run over, the default first
    exponents: Callable[[StatProfile], dict]
    help: str  # one line, shown by ``eulab poly --help``


def _des_asc(s: StatProfile) -> dict:
    return {"x": s.des, "y": s.asc, "al": s.weight}


KINDS = {
    EnumeratorKind.BSE: KindSpec(
        (PermClass.PRW,), _des_asc,
        "descent/ascent enumerator over decreasing-prefix words",
    ),
    EnumeratorKind.BSE_Z: KindSpec(
        (PermClass.PRW,),
        lambda s: {"x": s.des - s.lrmin + 1, "y": s.asc, "z": s.lrmin - 1, "al": s.weight},
        "same, with the decreasing prefix marked by z",
    ),
    EnumeratorKind.PTILDE: KindSpec(
        (PermClass.PRW,),
        lambda s: {"u1": s.peaks, "u2": s.peaks, "u3": s.double_asc, "u4": s.internal_dd,
                   "u5": s.lrmin_dd, "al": s.weight},
        "five-variable peak refinement",
    ),
    EnumeratorKind.SE: KindSpec(
        (PermClass.SYM,), _des_asc,
        "descent/ascent enumerator over the symmetric group",
    ),
    EnumeratorKind.REFINED: KindSpec(
        (PermClass.PRW, PermClass.SYM),
        lambda s: {"u1": s.peaks, "u2": s.peaks, "u3": s.double_asc, "u4": s.double_desc,
                   "al": s.weight},
        "four-variable peak refinement over a chosen class",
    ),
}


def build(kind: EnumeratorKind, index: int, klass: PermClass | None = None) -> Enumerator:
    """Build one enumerator; see the module docstring for the kinds.  Only
    a kind with more than one class takes ``klass`` and records it.

    >>> str(build(EnumeratorKind.BSE, 1).value)
    'al*x + al*y'
    >>> str(build(EnumeratorKind.BSE_Z, 1).value)
    'al*y + al*z'
    """
    kind = EnumeratorKind(kind)
    _require_ints("build", index=index)
    spec = KINDS[kind]
    if klass is not None and len(spec.classes) == 1:
        raise ValueOutOfRangeError(f"kind {kind.value} does not take a class")
    tag = spec.classes[0] if klass is None else PermClass(klass)
    if tag not in spec.classes:
        raise ValueOutOfRangeError(f"{kind.value} enumerator over {tag.value} is not defined")
    size = letters(tag, index)
    # the weight exponent lrmin + rlmin - 2 presumes a nonempty word
    if size < 1:
        raise ValueOutOfRangeError(f"index {index} leaves the {kind.value} enumerator no letters")
    _check_cap(size)
    return Enumerator(kind, index, tag if len(spec.classes) > 1 else None,
                      _value(kind, tag, size))


@functools.cache
def _value(kind: EnumeratorKind, tag: PermClass, size: int) -> MultiPoly:
    """The polynomial of one enumerator over a class on ``size`` letters;
    ``build`` checks every argument and the cap before it reads this."""
    return profile_sum(tag, size, KINDS[kind].exponents)


def stirling_eulerian(m: int, k: int) -> MultiPoly:
    """Sum of al^rlmin over the words in S_m with exactly k ascents.

    >>> str(stirling_eulerian(3, 1))
    '3*al^2 + al'
    """
    _require_ints("stirling_eulerian", m=m, k=k)
    if m < 0 or k < 0:
        raise ValueOutOfRangeError(f"need m, k >= 0, got m={m}, k={k}")
    _check_cap(m)
    return _ascent_rows(m).get((k,), MultiPoly.zero())


@functools.cache
def _ascent_rows(m: int) -> dict:
    """Each ascent count (k,) of the words in S_m mapped to the sum of
    al^rlmin over the words with k ascents, split off one sum over S_m;
    ``stirling_eulerian`` checks m before it reads this, and only reads it."""
    weights = profile_sum(PermClass.SYM, m, lambda s: {"k": s.asc, "al": s.rlmin})
    return weights.coefficients(["k"])


def alternating_weight(n: int) -> MultiPoly:
    """Sum of al^rlmin over the down-up alternating words in S_n."""
    return profile_sum(PermClass.ALT_DOWN_UP, n, lambda s: {"al": s.rlmin})


def euler_number(n: int) -> int:
    """Count of down-up alternating words, by the doubling convolution
    2*E(m+1) = sum_k comb(m, k) E(k) E(m-k), E(0) = E(1) = 1, filled in
    for m = 1..n-1.

    >>> [euler_number(i) for i in range(9)]
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    _require_ints("euler_number", n=n)
    if n < 0:
        raise ValueOutOfRangeError(f"need n >= 0, got {n}")
    e = [1, 1]
    for m in range(1, n):
        total = sum(comb(m, k) * e[k] * e[m - k] for k in range(m + 1))
        assert total % 2 == 0
        e.append(total // 2)
    return e[n]
