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
    """
    top = 0
    for m in masks:
        top |= m
    rows = [0] * (top.bit_length() + 1)
    for j, m in enumerate(masks):
        for v in iter_bits(m):
            rows[v] |= 1 << j
    return rows
