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

The rule lives in one kernel, ``_images``: one pass over a word gives its
images under all n letters, each letter classified by its two neighbours
and moved directly.  Every public toggle reads letter x's entry of it;
``minima_hop`` first reads the minimum classification off ``perms``.

One engine finds orbits: ``_walk`` maps each member of one word's orbit to
its images under the letters 1..n, one ``_images`` call per member, and
``_representative`` finds the orbit's one double-descent-free member.
``orbit`` and ``orbit_dot`` run them on any word; ``pip`` and
``group-action`` from each double-descent-free word of a class, one orbit
at a time.

Inputs are validated once, at the boundary: the public functions check the
word with ``perms.check_word`` and the letter with ``_check_letter``.  The
``_``-prefixed kernels (``_images`` and the swap helpers) trust their
caller to hand them a permutation tuple and a letter of it; ``orbit`` and
``toggle_many`` validate their input once and then run on them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import RepresentativeError, ValueOutOfRangeError
from .perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    Perm,
    _check_cap,
    _classify,
    check_word,
    format_perm,
    lrmin_values,
    rlmin_values,
)


class Factorization(NamedTuple):
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
    """Position of the letter x in the validated word w; x must be a plain
    ``int`` in 1..n."""
    if type(x) is not int or not (1 <= x <= len(w)):
        raise ValueOutOfRangeError(f"letter {x!r} not in 1..{len(w)}")
    return w.index(x)


def _runs(w: Perm, i: int) -> tuple[int, int]:
    """Bounds ``lo <= i < hi`` of the maximal runs of letters above w[i]
    flanking position i: they are ``w[lo:i]`` and ``w[i + 1:hi]``."""
    x = w[i]
    lo = i
    while lo > 0 and w[lo - 1] > x:
        lo -= 1
    hi = i + 1
    while hi < len(w) and w[hi] > x:
        hi += 1
    return lo, hi


def _swap(w: Perm, i: int) -> Perm:
    """The interval swap of the letter at position i."""
    lo, hi = _runs(w, i)
    return w[:lo] + w[i + 1 : hi] + (w[i],) + w[lo:i] + w[hi:]


def _images(w: Perm) -> tuple:
    """The images of w under the letters 1..n, in letter order, in one pass
    over w: the one place the toggle rule lives.  Each letter's class is
    read off its two neighbours (``n + 1`` stands for the +inf padding).  A
    double ascent x moves to just before the next letter below it, scanning
    rightward and wrapping to the start of the word; a double descent moves
    to just after the previous letter below it, scanning leftward and
    wrapping to the end.  Without the wrap this is the interval swap (the
    run on the other side of x is empty).  The scan wraps exactly when x is
    a right-to-left minimum double ascent (resp. a left-to-right minimum
    double descent), and then lands at the greatest left-to-right (resp.
    right-to-left) minimum below x: the minima hop.  Peaks and valleys stay
    put."""
    n = len(w)
    out = [w] * n
    left = top = n + 1
    for i, x in enumerate(w):
        right = w[i + 1] if i + 1 < n else top
        if left < x < right:  # j: the position x lands before
            j = i + 1
            while j < n and w[j] > x:
                j += 1
            if j == n:
                j = 0
                while w[j] > x:
                    j += 1
        elif left > x > right:
            j = i - 1
            while j >= 0 and w[j] > x:
                j -= 1
            if j < 0:
                j = n - 1
                while w[j] > x:
                    j -= 1
            j += 1
        else:
            left = x
            continue
        left = x
        if j > i:
            out[x - 1] = w[:i] + w[i + 1 : j] + (x,) + w[j:]
        else:
            out[x - 1] = w[:j] + (x,) + w[j:i] + w[i + 1 :]
    return tuple(out)


def x_factorization(word: Sequence[int], x: int) -> Factorization:
    """Split around the letter x.

    >>> f = x_factorization((2, 1, 7, 6, 8, 5, 4, 3, 9), 5)
    >>> (f.prefix, f.left_high, f.right_high, f.suffix)
    ((2, 1), (7, 6, 8), (), (4, 3, 9))
    """
    w = check_word(word)
    i = _check_letter(w, x)
    lo, hi = _runs(w, i)
    return Factorization(
        prefix=w[:lo], left_high=w[lo:i], pivot=x, right_high=w[i + 1 : hi], suffix=w[hi:]
    )


def interval_swap(word: Sequence[int], x: int) -> Perm:
    """Exchange the high runs flanking x (the classical swap)."""
    w = check_word(word)
    return _swap(w, _check_letter(w, x))


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
    kind = _classify(w)[_check_letter(w, x)]
    if (kind == DOUBLE_ASC and x in rlmin_values(w)) or (
        kind == DOUBLE_DESC and x in lrmin_values(w)
    ):
        return _images(w)[x - 1]
    return w


def toggle(word: Sequence[int], x: int) -> Perm:
    """Apply the letter-x involution: identity on peaks and valleys, the
    interval swap on non-minimum double ascents/descents, the minima hop on
    the minimum-classified ones."""
    w = check_word(word)
    _check_letter(w, x)
    return _images(w)[x - 1]


def toggle_many(word: Sequence[int], letters: Iterable[int]) -> Perm:
    """Toggle a set of letters, in increasing letter order.  The toggles
    commute, so the order is a normalization, not a choice."""
    w = check_word(word)
    xs = list(letters)
    for x in xs:
        _check_letter(w, x)
    for x in sorted(set(xs)):
        w = _images(w)[x - 1]
    return w


class Orbit(NamedTuple):
    """Closure of one word under all letter toggles."""

    members: tuple  # sorted tuple[Perm, ...]
    representative: Perm  # the unique member with no double descent

    @property
    def size(self) -> int:
        return len(self.members)


def _has_double_descent(w: Perm) -> bool:
    """Whether some letter has a larger letter on each side (+inf padding, as
    in ``_images``): the first letter when it descends, or one between two
    descents.  A scan of its own, apart from the statistic profiles."""
    if len(w) > 1 and w[0] > w[1]:
        return True
    for i in range(1, len(w) - 1):
        if w[i - 1] > w[i] > w[i + 1]:
            return True
    return False


def _walk(w: Perm) -> dict:
    """The toggle table of w's orbit: each member, w first, mapped to the
    tuple of its images under the letters 1..n.  The only code that builds
    a toggle table."""
    table, todo = {}, [w]
    while todo:
        u = todo.pop()
        if u not in table:
            table[u] = images = _images(u)
            todo.extend(images)
    return table


def _representative(table: dict, w: Perm) -> Perm:
    """The one double-descent-free member of the orbit table walked from w;
    any other count raises ``RepresentativeError``."""
    reps = [m for m in table if not _has_double_descent(m)]
    if len(reps) != 1:
        raise RepresentativeError(
            f"expected one double-descent-free member, found {len(reps)} in orbit of {w}"
        )
    return reps[0]


def orbit(word: Sequence[int]) -> Orbit:
    """Closure of ``word`` under every letter toggle.

    >>> orbit((2, 1, 3)).members
    ((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    """
    w = check_word(word)
    _check_cap(len(w))
    table = _walk(w)
    return Orbit(members=tuple(sorted(table)), representative=_representative(table, w))


def orbit_dot(orb: Orbit) -> str:
    """Render an orbit as an undirected DOT graph, edges labeled by the
    toggled letter."""
    n = len(orb.representative)
    # an Orbit can be built by hand: each member is validated once, as the
    # public toggle would validate it, and then toggled by the kernel
    names = {}
    lines = ["graph orbit {", "  node [shape=box];"]
    for m in orb.members:
        w = check_word(m)
        if n:
            _check_letter(w, n)
        names[w] = format_perm(w)
        style = " [style=bold]" if w == orb.representative else ""
        lines.append(f'  "{names[w]}"{style};')
    edges = set()
    for w in list(names):
        for x, v in enumerate(_images(w), start=1):
            if v != w:
                if v not in names:  # a hand-built orbit need not be closed
                    names[v] = format_perm(v)
                edges.add((min(w, v), max(w, v), x))
    for a, b, x in sorted(edges):
        lines.append(f'  "{names[a]}" -- "{names[b]}" [label="{x}"];')
    lines.append("}")
    return "\n".join(lines)
