"""Bitmask helpers for vertex sets over 1..n (vertex v <-> bit v-1)."""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit(v: int) -> int:
    return 1 << (v - 1)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set vertices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def select(items: Sequence[T], index_set: int) -> list[T]:
    """The items at the set bits of ``index_set`` (bit j picks ``items[j]``), in order.

    The binary string of ``index_set``, reversed and mapped to 0/1 bytes, is
    the selector of one ``compress``: no per-bit loop.
    """
    return list(compress(items, format(index_set, "b")[::-1].encode().translate(_DIGITS)))


def size_levels(rows: Iterable[int], within: int) -> list[int]:
    """Index sets by count: bit j of ``levels[s]`` is set when j is in ``within``
    and exactly s of the ``rows`` hold bit j.

    The counts are bit-sliced: ``slices[b]`` holds bit b of every index's
    count, and each row is added to them by a ripple-carry adder, one AND and
    one XOR per slice it reaches.  Splitting ``within`` on the slices from the
    highest down then gives the levels in increasing count, 2**len(slices) of
    them (the top ones may be empty).
    """
    slices: list[int] = []
    for r in rows:
        carry = r & within
        for b, s in enumerate(slices):
            if not carry:
                break
            slices[b] = s ^ carry
            carry &= s
        if carry:
            slices.append(carry)
    levels = [within]
    for s in reversed(slices):
        levels = [part for level in levels for part in (level & ~s, level & s)]
    return levels


def incidence_rows(masks: Sequence[int]) -> list[int]:
    """Per-vertex incidence bitsets: ``rows[v]`` has bit j when ``masks[j]`` contains v.

    Indexed 0..n, n the largest vertex of any mask; row 0 is always 0.

    One transpose of the k x n bit matrix, with no per-bit loop.  Each
    mask is written as nb = ceil(n / 8) little-endian bytes, and the k
    records are joined into one integer, mask j at bits j*w .. j*w + w - 1
    for the stride w = 8*nb.  That integer, printed as a k*w-digit binary
    string, holds vertex v of mask j at index (k - 1 - j)*w + w - v, so
    the strided slice ``s[w - v::w]`` reads vertex v's bit of masks
    k-1, ..., 0: the binary digits of row v.
    """
    top = 0
    for m in masks:
        top |= m
    n = top.bit_length()
    nb = (n + 7) // 8
    w = 8 * nb
    packed = int.from_bytes(b"".join(m.to_bytes(nb, "little") for m in masks), "little")
    s = format(packed, f"0{len(masks) * w}b")
    return [0] + [int(s[w - v::w], 2) for v in range(1, n + 1)]
