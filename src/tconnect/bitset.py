"""Bitmask helpers for vertex sets over 1..n (vertex v <-> bit v-1)."""

from __future__ import annotations

from typing import Iterable, Iterator


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
