"""Bitmask helpers for vertex sets over 1..n (vertex v <-> bit v-1)."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


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
