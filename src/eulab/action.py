"""A letter-indexed involutive action on permutation words.

For a letter x, the word factors as ``prefix, left_high, x, right_high,
suffix`` where the two inner runs are the maximal blocks of letters
exceeding x adjacent to x.  The classical interval swap exchanges the two
runs.  The action used here applies, per letter class:

* peak or valley: nothing;
* double ascent/descent that is not a right-to-left (resp. left-to-right)
  minimum: the interval swap;
* double ascent that is a right-to-left minimum: remove x and reinsert it
  immediately before the greatest left-to-right minimum below x (the
  ``minima hop``), turning it into a left-to-right-minimum double descent;
  and the mirror move for left-to-right-minimum double descents.

Toggling distinct letters commutes, every toggle is an involution, and each
orbit contains exactly one word free of double descents; the verification
registry checks all of that exhaustively at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import RepresentativeError, ValueOutOfRangeError
from .perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    Perm,
    _check_cap,
    check_word,
    classify,
    format_perm,
    lrmin_values,
    rlmin_values,
    stats,
)


@dataclass(frozen=True)
class Factorization:
    """``prefix + left_high + (pivot,) + right_high + suffix`` with the two
    high runs maximal among letters greater than the pivot."""

    prefix: Perm
    left_high: Perm
    pivot: int
    right_high: Perm
    suffix: Perm

    def word(self) -> Perm:
        return self.prefix + self.left_high + (self.pivot,) + self.right_high + self.suffix


def _check_letter(w: Perm, x: int) -> int:
    if not (1 <= x <= len(w)):
        raise ValueOutOfRangeError(f"letter {x} not in 1..{len(w)}")
    return w.index(x)


def x_factorization(word: Sequence[int], x: int) -> Factorization:
    """Split around the letter x.

    >>> f = x_factorization((2, 1, 7, 6, 8, 5, 4, 3, 9), 5)
    >>> (f.prefix, f.left_high, f.right_high, f.suffix)
    ((2, 1), (7, 6, 8), (), (4, 3, 9))
    """
    w = check_word(word)
    i = _check_letter(w, x)
    lo = i
    while lo > 0 and w[lo - 1] > x:
        lo -= 1
    hi = i + 1
    while hi < len(w) and w[hi] > x:
        hi += 1
    return Factorization(
        prefix=w[:lo], left_high=w[lo:i], pivot=x, right_high=w[i + 1 : hi], suffix=w[hi:]
    )


def interval_swap(word: Sequence[int], x: int) -> Perm:
    """Exchange the high runs flanking x (the classical swap)."""
    f = x_factorization(word, x)
    return f.prefix + f.right_high + (f.pivot,) + f.left_high + f.suffix


def minima_hop(word: Sequence[int], x: int) -> Perm:
    """Move a right-to-left-minimum double ascent x to just before the
    greatest left-to-right minimum below it, or a left-to-right-minimum
    double descent to just after the greatest right-to-left minimum below
    it.  Any other letter is left in place.

    >>> minima_hop((1, 2), 2)
    (2, 1)
    >>> minima_hop((2, 1), 2)
    (1, 2)
    """
    w = check_word(word)
    i = _check_letter(w, x)
    kind = classify(w)[i]
    if kind == DOUBLE_ASC and x in rlmin_values(w):
        anchor = max(v for v in lrmin_values(w) if v < x)
        rest = w[:i] + w[i + 1 :]
        j = rest.index(anchor)
        return rest[:j] + (x,) + rest[j:]
    if kind == DOUBLE_DESC and x in lrmin_values(w):
        anchor = max(v for v in rlmin_values(w) if v < x)
        rest = w[:i] + w[i + 1 :]
        j = rest.index(anchor)
        return rest[: j + 1] + (x,) + rest[j + 1 :]
    return w


def toggle(word: Sequence[int], x: int) -> Perm:
    """Apply the letter-x involution: identity on peaks and valleys, the
    interval swap on non-minimum double ascents/descents, the minima hop on
    the minimum-classified ones."""
    w = check_word(word)
    i = _check_letter(w, x)
    kind = classify(w)[i]
    if kind == DOUBLE_ASC:
        if x in rlmin_values(w):
            return minima_hop(w, x)
        return interval_swap(w, x)
    if kind == DOUBLE_DESC:
        if x in lrmin_values(w):
            return minima_hop(w, x)
        return interval_swap(w, x)
    return w


def toggle_many(word: Sequence[int], letters: Iterable[int]) -> Perm:
    """Toggle a set of letters, in increasing letter order.  The toggles
    commute, so the order is a normalization, not a choice."""
    w = check_word(word)
    for x in sorted(set(letters)):
        w = toggle(w, x)
    return w


@dataclass(frozen=True)
class Orbit:
    """Closure of one word under all letter toggles."""

    members: tuple  # sorted tuple[Perm, ...]
    representative: Perm  # the unique member with no double descent

    @property
    def size(self) -> int:
        return len(self.members)


def orbit(word: Sequence[int]) -> Orbit:
    """Breadth-first closure of ``word`` under every letter toggle.

    >>> orbit((2, 1, 3)).members
    ((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    """
    w = check_word(word)
    n = len(w)
    _check_cap(n)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for x in range(1, n + 1):
                v = toggle(u, x)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    members = tuple(sorted(seen))
    reps = [m for m in members if stats(m).double_desc == 0]
    if len(reps) != 1:
        raise RepresentativeError(
            f"expected one double-descent-free member, found {len(reps)} in orbit of {w}"
        )
    return Orbit(members=members, representative=reps[0])


def orbit_dot(orb: Orbit) -> str:
    """Render an orbit as an undirected DOT graph, edges labeled by the
    toggled letter."""
    n = len(orb.representative)
    lines = ["graph orbit {", "  node [shape=box];"]
    for m in orb.members:
        style = " [style=bold]" if m == orb.representative else ""
        lines.append(f'  "{format_perm(m)}"{style};')
    edges = set()
    for m in orb.members:
        for x in range(1, n + 1):
            v = toggle(m, x)
            if v != m:
                a, b = sorted((m, v))
                edges.add((a, b, x))
    for a, b, x in sorted(edges):
        lines.append(f'  "{format_perm(a)}" -- "{format_perm(b)}" [label="{x}"];')
    lines.append("}")
    return "\n".join(lines)
