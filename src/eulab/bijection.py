"""A statistic-reversing involution on decreasing-prefix words.

Sectioning a word after every right-to-left minimum tiles it into blocks
whose last letters increase left to right; every non-final letter of a block
exceeds the block's final.  On words whose prefix ending at the value 1 is
strictly decreasing, the involution below swaps descents with ascents and
double descents with double ascents while preserving the total count of
left-to-right plus right-to-left minima.

Construction, in one pass over the word.  Cut the letters after 1 into
blocks after each right-to-left minimum (marked by one backward
``perms._minima`` scan).  A one-letter block is an isolated letter; a
longer block is flipped: its non-final letters reversed, its final kept
last.  The image is the isolated letters in decreasing order, then 1, then
the flipped blocks in order, with each letter of the prefix before 1 placed
just before the first flipped block whose final is larger, and the rest of
the prefix at the end.  Since block finals increase, that placement is one
merge of the increasing prefix letters with the block finals.

A word is validated once, at the boundary: the public ``mirror`` checks its
word with ``perms.check_prefix_decreasing`` and then calls the kernel
``_mirror``, which trusts its caller to hand it a decreasing-prefix
permutation tuple, e.g. a word from ``enumerate_class``, and validates
nothing.  ``mirror_pairs`` runs the kernel on the words it generates.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .perms import Perm, PermClass, _minima, check_prefix_decreasing, enumerate_class


def mirror(word: Sequence[int]) -> Perm:
    """The involution.  Requires the prefix ending at 1 to decrease.

    >>> mirror((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    (6, 2, 1, 7, 3, 4, 5, 9, 10, 8)
    >>> mirror((4, 1, 2, 3))
    (3, 2, 1, 4)
    """
    return _mirror(check_prefix_decreasing(word))


def _mirror(w: Perm) -> Perm:
    """``mirror`` of a permutation tuple whose prefix ending at 1 decreases."""
    if not w:
        return w
    k = w.index(1)
    # the letters after 1 that are smaller than every letter after them; the
    # bound is the whole word's n + 1, as a letter after 1 may exceed the tail's length
    ends = _minima(reversed(w[k + 1 :]), len(w) + 1)
    isolated, flipped, start = [], [], k + 1
    for i in range(k + 1, len(w)):
        if w[i] in ends:
            if i == start:
                isolated.append(w[i])
            else:
                flipped.append(w[start:i][::-1] + (w[i],))
            start = i + 1
    out = sorted(isolated, reverse=True) + [1]
    prefix, j = w[:k][::-1], 0  # increasing
    for block in flipped:
        while j < k and prefix[j] < block[-1]:
            out.append(prefix[j])
            j += 1
        out.extend(block)
    out.extend(prefix[j:])
    return tuple(out)


def mirror_pairs(n: int) -> Iterator[tuple[Perm, Perm]]:
    """Stream the (word, mirror(word)) pairs over the decreasing-prefix words
    on n letters in lexicographic order; the call checks the cap and n."""
    return ((w, _mirror(w)) for w in enumerate_class(PermClass.PRW, n))


def pair_table(n: int) -> list:
    """All the pairs of ``mirror_pairs(n)``, as a list."""
    return list(mirror_pairs(n))
