"""A statistic-reversing involution on decreasing-prefix words.

Sectioning a word after every right-to-left minimum tiles it into blocks
whose last letters increase left to right; every non-final letter of a block
exceeds the block's final.  On words whose prefix ending at the value 1 is
strictly decreasing, the involution below swaps descents with ascents and
double descents with double ascents while preserving the total count of
left-to-right plus right-to-left minima.

Construction: reverse the non-final letters of every non-singleton block
after the one holding 1; pull out the isolated (singleton-block) minima
except 1 and the prefix letters before 1; stack the former in decreasing
order directly before 1; re-seed the latter as new singleton blocks at the
positions their values force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidPermutationError, NotPrefixDecreasingError
from .perms import (
    Perm,
    PermClass,
    _is_prefix_decreasing,
    check_word,
    enumerate_class,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """Word sectioned after every right-to-left minimum."""

    blocks: tuple  # tuple[Perm, ...]

    def finals(self) -> tuple:
        return tuple(b[-1] for b in self.blocks)

    def isolated(self) -> tuple:
        """Values sitting in singleton blocks."""
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def word(self) -> Perm:
        return tuple(v for b in self.blocks for v in b)


def decompose(word: Sequence[int]) -> BlockDecomposition:
    """Cut after each right-to-left minimum.  Letters need only be
    distinct, so the involution can section its intermediate words.

    >>> decompose((5, 4, 1, 2, 7, 3, 6, 10, 9, 8)).blocks
    ((5, 4, 1), (2,), (7, 3), (6,), (10, 9, 8))
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise InvalidPermutationError(f"letters must be distinct: {w}")
    blocks = []
    start = 0
    # position i ends a block when w[i] is smaller than everything after it
    suffix_min = [0] * (len(w) + 1)
    suffix_min[len(w)] = max(w, default=0) + 1
    for i in range(len(w) - 1, -1, -1):
        suffix_min[i] = min(w[i], suffix_min[i + 1])
    for i, v in enumerate(w):
        if v < suffix_min[i + 1]:
            blocks.append(w[start : i + 1])
            start = i + 1
    return BlockDecomposition(tuple(blocks))


def mirror(word: Sequence[int]) -> Perm:
    """The involution.  Requires the prefix ending at 1 to decrease.

    >>> mirror((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    (6, 2, 1, 7, 3, 4, 5, 9, 10, 8)
    >>> mirror((4, 1, 2, 3))
    (3, 2, 1, 4)
    """
    w = check_word(word)
    if not w:
        return w
    if not _is_prefix_decreasing(w):
        raise NotPrefixDecreasingError(f"prefix before the value 1 must decrease: {w}")
    blocks = decompose(w).blocks
    # the first block is the decreasing prefix ending at 1
    flipped = [blocks[0]]
    for b in blocks[1:]:
        flipped.append(b if len(b) == 1 else b[-2::-1] + (b[-1],))
    pulled_isolated = {b[0] for b in blocks[1:] if len(b) == 1}
    pulled_prefix = set(blocks[0][:-1])  # the left-to-right minima above 1
    kept = tuple(
        v for b in flipped for v in b if v not in pulled_isolated and v not in pulled_prefix
    )
    # kept starts at 1; stack the isolated values decreasingly before it
    work = tuple(sorted(pulled_isolated, reverse=True)) + kept
    out_blocks = list(decompose(work).blocks)
    for v in sorted(pulled_prefix):
        idx = sum(1 for b in out_blocks if b[-1] < v)
        out_blocks.insert(idx, (v,))
    return tuple(x for b in out_blocks for x in b)


def pair_table(n: int) -> list:
    """All (word, mirror(word)) pairs over the decreasing-prefix words on n
    letters, in lexicographic order of the first component."""
    return [(w, mirror(w)) for w in enumerate_class(PermClass.PRW, n)]
