import inspect
import random

import pytest

from tconnect import bitset
from tconnect.bitset import incidence_rows, mask_of, select, size_levels
from tconnect.graphs import connected_subsets, fixture
from util import brute_incidence_rows

# top vertices on either side of the byte and word boundaries of the packed stride
BOUNDARY_TOPS = (7, 8, 9, 16, 17, 24, 64, 65)


def kernel_inputs() -> list[list[int]]:
    cases = [[], [0], [0b1011]]
    for top in BOUNDARY_TOPS:
        cases.append([1 << (top - 1)])
        cases.append([0b101, 1 << (top - 1) | 1, 0, (1 << top) - 1])
    cases.append([mask_of(c) for c in connected_subsets(fixture("path", 400), 3)])
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 70)
        cases.append([rng.getrandbits(n) for _ in range(rng.randint(0, 40))])
    return cases


def agrees(kernel, masks) -> bool:
    rows = kernel(masks)
    top = 0
    for m in masks:
        top |= m
    return rows == brute_incidence_rows(masks) and rows[0] == 0 and len(rows) == top.bit_length() + 1


def test_incidence_rows_unit_and_empty():
    assert incidence_rows([]) == [0]
    assert incidence_rows([0]) == [0]
    assert incidence_rows([0, 0b110]) == [0, 0, 2, 2]


def test_incidence_rows_match_the_per_bit_rows():
    for masks in kernel_inputs():
        assert agrees(incidence_rows, masks), masks[:5]


@pytest.mark.parametrize("fault", ["int(s[w - v + 1::w], 2)", "int(s[w - v::w + 1], 2)"])
def test_incidence_rows_check_rejects_a_wrong_stride(fault):
    source = inspect.getsource(incidence_rows)
    assert source.count("int(s[w - v::w], 2)") == 1
    scope = dict(vars(bitset))
    exec(source.replace("int(s[w - v::w], 2)", fault), scope)
    faulty = scope["incidence_rows"]
    rejected = 0
    for masks in kernel_inputs():
        try:
            rejected += not agrees(faulty, masks)
        except ValueError:  # a slice past the end reads an empty row
            rejected += 1
    assert rejected


def test_size_levels_match_the_bit_count_per_index():
    rng = random.Random(2025)
    cases = [([], 0), ([], 0b101), ([0b11], 0), ([0b11, 0b10, 0b10], 0b111)]
    for _ in range(300):
        width = rng.randint(1, 140)
        rows = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, 20))]
        cases.append((rows, rng.choice([(1 << width) - 1, rng.getrandbits(width)])))
    for rows, within in cases:
        levels = size_levels(rows, within)
        assert len(levels) & (len(levels) - 1) == 0  # 2**len(slices) levels
        for j in range(max(within.bit_length(), 1)):
            count = sum((r >> j & 1) << i for i, r in enumerate(rows)).bit_count()
            holding = [s for s, level in enumerate(levels) if level >> j & 1]
            assert holding == ([count] if within >> j & 1 else []), (rows, within, j)


def test_select_picks_the_items_at_the_set_bits():
    rng = random.Random(2026)
    assert select([], 0) == select([5, 6], 0) == []
    assert select("abc", 0b101) == ["a", "c"]
    for _ in range(200):
        items = [rng.getrandbits(20) for _ in range(rng.randint(0, 150))]
        index_set = rng.getrandbits(len(items))
        assert select(items, index_set) == [m for j, m in enumerate(items) if index_set >> j & 1]
