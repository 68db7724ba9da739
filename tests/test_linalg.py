import copy
import random
from fractions import Fraction

from tconnect.linalg import rank_gf2, rank_mod_p, rank_rationals, rank_unimodular


def sparse(rows):
    """Dense integer rows -> the sparse {column: entry} rows the ranks take."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def fraction_rank(rows):
    """Plain Gaussian elimination over Q with Fractions (test oracle)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(m) and col < width:
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def dense_rank_mod_p(rows, p):
    """Dense modular elimination on the lowest column (test oracle)."""
    pivots = []  # (column, normalized row)
    rank = 0
    for row in rows:
        row = [x % p for x in row]
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        norm = [(x * inv) % p for x in row]
        pivots.append((lead, norm))
        pivots.sort(key=lambda t: t[0])
        rank += 1
    return rank


def test_rank_gf2_basic():
    assert rank_gf2([0b011, 0b101, 0b110]) == 2  # third row is the xor of the others
    assert rank_gf2([0b001, 0b010, 0b100]) == 3
    assert rank_gf2([0, 0]) == 0


def test_rank_mod_p_depends_on_p():
    rows = sparse([[2, 1], [1, 2]])  # determinant 3
    assert rank_mod_p(rows, 3) == 1
    assert rank_mod_p(rows, 2) == 2
    assert rank_rationals(rows) == 2


def test_rank_rationals_dependent_rows():
    assert rank_rationals(sparse([[2, 4], [1, 2]])) == 1
    assert rank_rationals(sparse([[0, 0, 0]])) == 0
    assert rank_rationals([{0: 0, 2: 0}]) == 0  # explicit zero entries count for nothing
    assert rank_rationals(sparse([[3]])) == 1
    assert rank_rationals([]) == 0


def test_rank_rationals_against_fraction_oracle():
    rng = random.Random(61)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank_rationals(sparse(m)) == fraction_rank(m)


def test_rank_mod_p_against_fraction_oracle_when_p_large():
    # over a prime larger than any minor the modular rank equals the
    # rational rank
    rng = random.Random(67)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(sparse(m), 1009) == fraction_rank(m)


def test_rank_bounds_between_fields():
    rng = random.Random(71)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = sparse([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        rq = rank_rationals(m)
        for p in (2, 3, 5):
            assert rank_mod_p(m, p) <= rq


def test_sparse_ranks_against_dense_references():
    rng = random.Random(73)
    for _ in range(300):
        cols = rng.randint(1, 12)
        density = rng.random()
        m = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rng.randint(1, 12))]
        rows = sparse(m)
        before = copy.deepcopy(rows)
        for p in (2, 3, 5, 7, 1009):
            assert rank_mod_p(rows, p) == dense_rank_mod_p(m, p), (m, p)
        assert rank_rationals(rows) == fraction_rank(m), m
        assert rows == before, "a rank routine changed its input rows"



def test_rank_unimodular_holds_over_every_field():
    rng = random.Random(79)
    certified = 0
    for _ in range(300):
        cols = rng.randint(1, 10)
        density = rng.random()
        m = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rng.randint(1, 10))]
        rows = sparse(m)
        before = copy.deepcopy(rows)
        rank = rank_unimodular(rows)
        assert rows == before, "rank_unimodular changed its input rows"
        if rank is not None:
            certified += 1
            assert rank == fraction_rank(m), m
            for p in (2, 3, 1009):
                assert rank == dense_rank_mod_p(m, p), (m, p)
    assert 50 < certified < 300  # both outcomes are exercised


def test_rank_unimodular_gives_up_on_a_pivot_that_is_not_a_unit():
    assert rank_unimodular(sparse([[2]])) is None
    assert rank_unimodular(sparse([[2, 1], [1, 2]])) is None  # determinant 3: rank 1 over GF(3)
    assert rank_unimodular(sparse([[-1, 0, 1], [1, 1, -1]])) == 2  # a -1 lead is negated
    assert rank_unimodular(sparse([[0, 0]])) == 0
    assert rank_unimodular([]) == 0
