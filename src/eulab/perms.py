"""Permutation words and the descent-type statistics used everywhere else.

A permutation of ``{1..n}`` is a plain tuple of ints.  Letter classification
pads both ends with ``+inf``: with that convention every letter is exactly
one of peak, valley, double ascent, double descent, the value 1 is always a
valley, and the first and last letters are left/right minima respectively.

``stats`` also refines double ascents and double descents by whether the
letter is a right-to-left (resp. left-to-right) minimum; that split is what
the interval-swap/minima-hop action and the rule-based derivative calculus
are keyed on.

Words are validated once, at the boundary: every public function that takes
a word passes it through ``check_word``, which admits only a tuple of plain
``int`` letters forming a permutation of 1..n (``check_prefix_decreasing``
also requires a decreasing prefix).  The ``_``-prefixed kernels (``_stats``,
``_classify``, ``_is_prefix_decreasing``, ``_in_class``, ``_minima``) and
the minima sets ``lrmin_values``/``rlmin_values`` trust their caller to
hand them such a tuple, e.g. the output of ``enumerate_class``, and
validate nothing.  The word kernels of ``eulab.grammar`` (``_slot_labels``)
and ``eulab.bijection`` (``_mirror``) keep the same contract.

``enumerate_class`` generates every class from one table of rules: a prefix
grows only by the letters its class allows, so no class is filtered from the
symmetric group.  Every class streams in lexicographic order.
"""

from __future__ import annotations

import itertools
import os
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (CapExceededError, InvalidPermutationError, NotPrefixDecreasingError,
                     ValueOutOfRangeError)

Perm = tuple  # tuple[int, ...]

DEFAULT_CAP = 10
_CAP_ENV = "EULAB_MAX_N"


def enumeration_cap() -> int:
    """Largest word length the class enumerators will touch.  Defaults to
    10 and can be overridden with the EULAB_MAX_N environment variable,
    which must be an integer of at least 1."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueOutOfRangeError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueOutOfRangeError(f"{_CAP_ENV} must be at least 1, got {cap}")
    return cap


def _require_ints(owner: str, **values) -> None:
    """Plain ints only: a bool, a float or a string is rejected."""
    for key, value in values.items():
        if type(value) is not int:
            raise ValueOutOfRangeError(f"{owner} takes an int {key}, got {value!r}")


def _check_cap(n: int) -> None:
    """Reject an ``n`` that is not a plain int or is past the enumeration
    cap.  Every path that enumerates calls this before it reads any word."""
    _require_ints("enumeration", n=n)
    cap = enumeration_cap()
    if n > cap:
        raise CapExceededError(f"{n} letters exceed the enumeration cap {cap} ({_CAP_ENV})")


def _check_class_size(tag: PermClass, n: int) -> None:
    """``_check_cap``, then reject a negative number of letters: on 0
    letters every class holds exactly the empty word."""
    _check_cap(n)
    if n < 0:
        raise ValueOutOfRangeError(f"n={n} is too small for class {tag.value}")


def check_word(word: Sequence[int]) -> Perm:
    """Validate that ``word`` is a permutation of 1..n and return it as a
    tuple.  Every letter must be a plain ``int``: a ``bool``, a ``float``
    such as ``2.0`` or a string is rejected, so it cannot reach an output."""
    w = tuple(word)
    if not set(map(type, w)) <= {int} or sorted(w) != list(range(1, len(w) + 1)):
        raise InvalidPermutationError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def check_prefix_decreasing(word: Sequence[int]) -> Perm:
    """``check_word``, and also reject a word whose prefix ending at 1 does
    not decrease; the one boundary of the decreasing-prefix words."""
    w = check_word(word)
    if not _is_prefix_decreasing(w):
        raise NotPrefixDecreasingError(f"prefix before the value 1 must decrease: {w}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse space- or comma-separated 1-based values.

    >>> parse_perm("2, 1, 3")
    (2, 1, 3)
    """
    parts = text.replace(",", " ").split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidPermutationError(f"not a permutation word: {text!r}") from None
    return check_word(values)


def format_perm(word: Sequence[int]) -> str:
    return " ".join(str(v) for v in word)


class StatProfile(NamedTuple):
    """All statistics of one word under +inf padding.

    ``lrmin``/``rlmin`` count left-to-right and right-to-left minima.
    ``rlmin_da`` counts double ascents that are right-to-left minima and
    ``internal_da`` the rest; ``lrmin_dd``/``internal_dd`` split double
    descents the same way by left-to-right minima.
    """

    n: int
    des: int
    asc: int
    peaks: int
    valleys: int
    double_asc: int
    double_desc: int
    lrmin: int
    rlmin: int
    internal_da: int
    internal_dd: int
    rlmin_da: int
    lrmin_dd: int

    @property
    def weight(self) -> int:
        """Exponent of the weight variable: lrmin + rlmin - 2."""
        return self.lrmin + self.rlmin - 2


def _minima(letters: Iterable[int], top: int) -> set:
    """The letters smaller than every letter before them, ``top`` exceeding
    them all: the one minima scan, run backward for right-to-left minima."""
    out, best = set(), top
    for v in letters:
        if v < best:
            best = v
            out.add(v)
    return out


def lrmin_values(word: Sequence[int]) -> set:
    return _minima(word, len(word) + 1)


def rlmin_values(word: Sequence[int]) -> set:
    return _minima(reversed(word), len(word) + 1)


def minima(word: Sequence[int]) -> tuple[tuple, tuple]:
    """1-based positions of left-to-right and right-to-left minima, each in
    increasing position order.

    >>> minima((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    ((1, 2, 3), (3, 4, 6, 7, 10))
    """
    w = check_word(word)
    lr, rl = lrmin_values(w), rlmin_values(w)
    return (
        tuple(i for i, v in enumerate(w, start=1) if v in lr),
        tuple(i for i, v in enumerate(w, start=1) if v in rl),
    )


PEAK, VALLEY, DOUBLE_ASC, DOUBLE_DESC = "peak", "valley", "double_asc", "double_desc"


def classify(word: Sequence[int]) -> tuple:
    """Class of every letter under +inf padding, in position order.

    >>> classify((2, 1, 3))
    ('double_desc', 'valley', 'double_asc')
    """
    return _classify(check_word(word))


def _classify(w: Perm) -> tuple:
    """``classify`` of a word already known to be a permutation tuple;
    ``n + 1`` serves as the +inf padding."""
    top = len(w) + 1
    out = []
    for left, v, right in zip((top,) + w, w, w[1:] + (top,)):
        if left < v > right:
            out.append(PEAK)
        elif left > v < right:
            out.append(VALLEY)
        elif left < v:
            out.append(DOUBLE_ASC)
        else:
            out.append(DOUBLE_DESC)
    return tuple(out)


def stats(word: Sequence[int]) -> StatProfile:
    """Full statistic profile of a word.

    >>> p = stats((2, 1, 3))
    >>> (p.des, p.asc, p.peaks, p.valleys) == (1, 1, 0, 1)
    True
    >>> (p.lrmin, p.rlmin, p.lrmin_dd, p.rlmin_da) == (2, 2, 1, 1)
    True
    """
    return _stats(check_word(word))


def _stats(w: Perm) -> StatProfile:
    """``stats`` of a word already known to be a permutation tuple.  One
    backward ``_minima`` scan collects the right-to-left minima as a set of
    values; one forward pass counts everything else.  ``n + 1`` exceeds
    every letter, so it serves as the +inf padding."""
    n = len(w)
    top = n + 1
    rl = _minima(reversed(w), top)
    des = peaks = valleys = lrmin = 0
    internal_da = internal_dd = rlmin_da = lrmin_dd = 0
    left = best = top
    for v, right in zip(w, w[1:] + (top,)):
        lr = v < best
        if lr:
            best = v
            lrmin += 1
        if v > right:
            des += 1
            if left < v:
                peaks += 1
            elif lr:
                lrmin_dd += 1
            else:
                internal_dd += 1
        elif left > v:
            valleys += 1
        elif v in rl:
            rlmin_da += 1
        else:
            internal_da += 1
        left = v
    asc = max(n - 1, 0) - des
    rlmin = len(rl)
    double_asc, double_desc = internal_da + rlmin_da, internal_dd + lrmin_dd
    return StatProfile(n, des, asc, peaks, valleys, double_asc, double_desc, lrmin, rlmin,
                       internal_da, internal_dd, rlmin_da, lrmin_dd)


def is_prefix_decreasing(word: Sequence[int]) -> bool:
    """True when every letter before the value 1 exceeds its successor, so
    the prefix ending at 1 is strictly decreasing.  Equivalently the first
    ascent, if any, starts at the value 1; the two readings are checked
    against each other exhaustively in the tests.

    >>> is_prefix_decreasing((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    True
    >>> is_prefix_decreasing((2, 3, 1))
    False
    """
    return _is_prefix_decreasing(check_word(word))


def _is_prefix_decreasing(w: Perm) -> bool:
    """``is_prefix_decreasing`` of a word already known to be a permutation
    tuple."""
    if not w:
        return True
    k = w.index(1)
    return all(w[i] > w[i + 1] for i in range(k))


class PermClass(Enum):
    """Enumerable families of words, each generated by its rule in ``_RULES``."""

    SYM = "sym"
    PRW = "prw"
    NDD_INTERIOR = "ndd-interior"
    ALT_DOWN_UP = "alt-down-up"


class _Rule(NamedTuple):
    """How a class grows its words: ``extra`` letters per size index;
    ``allows(p, v)``, may the unused letter ``v`` follow the prefix ``p``;
    ``free(p)``, may every arrangement of the remaining letters follow ``p``."""

    extra: int
    allows: Callable[[Perm, int], bool]
    free: Callable[[Perm], bool] = lambda p: False


_RULES = {
    PermClass.SYM: _Rule(0, lambda p, v: True, lambda p: True),
    # the prefix ending at 1 decreases; size index n means n+1 letters, so
    # that the enumerator of index n has degree n in x and y
    PermClass.PRW: _Rule(1, lambda p, v: not p or p[-1] > v, lambda p: p[-1:] == (1,)),
    # no three consecutive letters decrease
    PermClass.NDD_INTERIOR: _Rule(0, lambda p, v: len(p) < 2 or not p[-2] > p[-1] > v),
    # descents at the odd 1-based positions, ascents at the even ones
    PermClass.ALT_DOWN_UP: _Rule(0, lambda p, v: not p or (p[-1] > v) == (len(p) % 2 == 1)),
}


def _in_class(tag: PermClass, w: Perm) -> bool:
    """Whether the class's rule grows the permutation tuple w: each letter
    may follow the prefix before it, until a free prefix admits the rest."""
    _, allows, free = _RULES[tag]
    for i, v in enumerate(w):
        if free(w[:i]):
            return True
        if not allows(w[:i], v):
            return False
    return True


def letters(tag: PermClass, index: int) -> int:
    """Word length behind size index ``index`` of a class.

    >>> letters(PermClass.PRW, 3), letters(PermClass.SYM, 3)
    (4, 3)
    """
    return index + _RULES[tag].extra


def _runs(rule: _Rule, n: int) -> Iterator[Iterable[Perm]]:
    """The class's words on n letters as consecutive runs, in lexicographic
    order.  Prefixes grow depth first, each by its allowed letters in
    increasing order; a free prefix yields every arrangement of the
    remaining letters as one run, straight from ``itertools.permutations``."""
    _, allows, free = rule
    stack = [((), tuple(range(1, n + 1)))]
    while stack:
        prefix, rest = stack.pop()
        if free(prefix):
            tails = itertools.permutations(rest)
            yield map(prefix.__add__, tails) if prefix else tails  # S_n: the bare stream
        elif not rest:
            yield (prefix,)
        else:  # pushed from the largest letter down, so the smallest pops first
            for i in range(len(rest) - 1, -1, -1):
                if allows(prefix, rest[i]):
                    stack.append((prefix + (rest[i],), rest[:i] + rest[i + 1 :]))


def enumerate_class(tag: PermClass, n: int) -> Iterator[Perm]:
    """Stream the members of a class on n letters, at most the enumeration
    cap (see ``enumeration_cap``), in lexicographic order.  On 0 letters
    every class holds exactly the empty word."""
    _check_class_size(tag, n)
    return itertools.chain.from_iterable(_runs(_RULES[tag], n))


def class_size(tag: PermClass, n: int) -> int:
    return sum(1 for _ in enumerate_class(tag, n))
