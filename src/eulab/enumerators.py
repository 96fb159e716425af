"""Statistic-generating polynomials over permutation classes.

Every enumerator sums one monomial per word of a class, with exponents read
off the word's statistic profile and the weight variable ``al`` raised to
the minima count.  Profile multiplicities per class are cached, so repeated
sums at the same size enumerate only once.

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
from collections import Counter
from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .errors import ValueOutOfRangeError
from .perms import (PermClass, StatProfile, _check_cap, _require_ints, _stats, enumerate_class,
                    letters)
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


@functools.lru_cache(maxsize=None, typed=True)
def profile_counts(tag: PermClass, n: int) -> tuple:
    """Multiplicity of each statistic profile over a class, as a sorted
    tuple of (StatProfile, count) pairs.  A size past the enumeration cap,
    or not a plain int, is rejected before any word is generated; the cache
    is typed, so ``2.0`` never reads the table of ``2``."""
    return tuple(sorted(Counter(_stats(w) for w in enumerate_class(tag, n)).items()))


def profile_sum(tag: PermClass, n: int, exponents) -> MultiPoly:
    """Sum one monomial per member of a class on n letters, its exponents
    read off the member's profile; an exponent map that returns None drops
    the member.

    The cap is checked here as well as in ``enumerate_class``, because a
    cached profile table skips enumeration: a lower cap set after the table
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
    value = profile_sum(tag, size, spec.exponents)
    return Enumerator(kind, index, tag if len(spec.classes) > 1 else None, value)


def stirling_eulerian(m: int, k: int) -> MultiPoly:
    """Sum of al^rlmin over the words in S_m with exactly k ascents.

    >>> str(stirling_eulerian(3, 1))
    '3*al^2 + al'
    """
    _require_ints("stirling_eulerian", m=m, k=k)
    if m < 0 or k < 0:
        raise ValueOutOfRangeError(f"need m, k >= 0, got m={m}, k={k}")
    return profile_sum(PermClass.SYM, m, lambda s: {"al": s.rlmin} if s.asc == k else None)


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
