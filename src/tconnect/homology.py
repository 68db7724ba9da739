"""Graded Betti numbers of R/I by evaluating Hochster's sum.

For a square-free ideal I, beta_{i,j}(R/I) with i >= 1 is the sum over
all j-subsets W of the reduced homology dimension in degree j - i - 1 of
the restriction to W of the Stanley-Reisner complex of I (the faces are
the subsets containing no generator).  beta_{0,0} is set to 1 directly.

The sum asks three questions of every subset: is it a face, is it a
cone, and is the link of one of its vertices a cone?  All three are one
covering test, answered for all 2^n subsets at once on 2^n-bit integers
(bit a for subset a).  The subsets that hold a generator are the
up-closure of the generators (bit by bit, a shift by 2^c); the rest are
the faces, one byte per subset.  A W with a vertex u in no generator
inside W restricts to a cone and is skipped: the W outside the
up-closure of the generators through u, united over u.  The rest are the
non-cone W, walked once in ascending order.  The reduced Euler
characteristic chi[W] is the zeta transform of the signed face
indicator, added on two's-complement bit planes of 2^n bits and read at
the non-cone W only.  The complex {empty set} has one-dimensional
homology in degree -1.  The memory of every table and list is estimated
against physical memory before any is made.

A non-cone W is reduced by a strong collapse (Barmak and Minian's
dominated vertices) where it can be.  The restriction to W is the union
of the restriction to W - v and the star of v, meeting in the link of v.
When that link is a cone, the restriction to W has the homology of the
restriction to W - v, with no evaluation.  The link of v restricted
to W - v is the complex of the colon ideal (I : x_v), so the cone test
is the one above, made on the colon's generators; each W keeps the
lowest vertex whose link is a cone, in a byte table (the lcm lattice of
I: Gasharov, Peeva and Welker, Math. Res. Lett. 1999).  A non-cone W
with no cone link is joined when the generators inside it fall into two
or more components (two generators meet when they share a vertex): the
restriction to W is then the join of the restrictions to the
components, each a non-cone below W.  Over a field the reduced homology
of a join is the convolution H_{k+1}(A * B) = sum over i + j = k of
H_i(A) (x) H_j(B) (Milnor 1956; Bjorner, "Topological methods", 1995).
A derived W is the join of one part, W - v, so both are linked W,
keeping their parts and no faces; a part that is a cone has no homology.

The remaining W are evaluated relative to the star of v, the lowest
vertex of W.  The star is a cone (or void, when {v} is a generator), so
the reduced homology of the restriction to W is that of the pair
(restriction, star), in every degree and over every field.  Its cells
are the s in W - v that are faces while s + v is not, one scan of
2^(|W| - 1) subsets; the empty set is a cell exactly when the star is
void.  The boundary of a cell is its simplicial boundary with the faces
in the star left out, the signs still alternating over every vertex.
Free pairs of cells are removed, an elementary reduction of the chain
complex over Z (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl.
1998): on fig1 induced on vertices 1..12 at t = 5, 618 cells of the
30 100 faces the evaluated W hold are left, in 4 boundary matrices.
Each is eliminated once over the integers with +-1 pivots
(``linalg.rank_unimodular``); when every pivot is +-1 that rank holds
over every field.

The walk decides each W's homology as it reaches it, its parts first: a
derived W copies W - v's dimensions, a joined W convolves its
components', and an evaluated W ranks its matrices through their
certificates.  Their entries are summed once for every field in a
``HochsterReduction``.  Only an evaluated W with a matrix that meets
another pivot (the projective plane has one), and every linked W that
reads such a W through its parts, depends on the field: those W are
kept in ascending order, and ``BettiTable.over`` folds just them over
its field onto the shared entries.

Every W in the sum is audited once, a field-dependent W once per field:
its alternating homology sum must equal chi[W] (which the relative cells
share, as the star's is 0), and no dimension may be negative.  For an
evaluated W this checks its cells and their collapse; for a linked W,
the convolution (a join's Euler characteristic is minus the product of
its parts', so a product shifted one degree fails whenever it is
nonzero) and the derivation (a wrong one changes it by the link's).
The first syzygies are audited once per table: beta_{1,j} must equal
the number of generators of degree j.  Neither audit sees the ranks
(their terms cancel in the alternating sum, and after the collapse the
top cell W - v meets no cell below it), so every rank is checked by a
second route: a certified rank against the GF(2) rank of the matrix,
and a rank over one field against a dense elimination over it.

All arithmetic is exact: boundary rows are sparse dicts {lower cell
index: +-1}.  A matrix that falls back is ranked over GF(2) by XOR
elimination, over GF(p) by modular and over Q by fraction-free
elimination, its rows built again for each field.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import chain, compress
from math import gcd
from typing import NamedTuple

from .bitset import submasks, vertices_of
from .ideals import SquareFreeIdeal
from .linalg import rank_gf2, rank_mod_p, rank_rationals, rank_unimodular

DEFAULT_MAX_ORACLE_VARS = 12
ORACLE_CAP_ENV = "SR_MAX_ORACLE_N"


class ResourceLimitError(RuntimeError):
    """The ambient variable count exceeds the oracle cap or the memory."""


class HomologyAuditError(RuntimeError):
    """A homology evaluation failed its internal consistency audit."""


_AUDIT = {"checks": 0, "failures": 0}


def audit_stats() -> dict[str, int]:
    return dict(_AUDIT)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: GF(p) for prime p, or the rationals (p is None)."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def parse(text: str) -> "Field":
        t = text.strip().lower()
        if t in ("q", "qq", "rationals"):
            return Field(None)
        digits = t[2:].strip("()")
        if t.startswith("gf") and digits.isdecimal():
            return Field(int(digits))
        raise ValueError(f"unknown field {text!r}; use 'q' or 'gf<p>'")

    def label(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


GF2 = Field(2)
GF3 = Field(3)
QQ = Field(None)


# ---------------------------------------------------------------------------
# Reduced homology


def _collapse(cells: list[list[int]], wbits: list[int]) -> list[list[int]]:
    """Remove free pairs of cells until none remain.

    A cell with exactly one coface among the cells left (one more vertex
    of ``wbits``) meets it with coefficient +-1, so removing the pair is
    an elementary reduction of the chain complex (Kaczynski, Mrozek and
    Slusarek, "Homology computation by reduction of chain complexes",
    1998): the boundary of every cell left is its old boundary with the
    pair deleted, and the homology does not change, over Z and so over
    every field.  Returns the cells left, by size, each size in ascending
    order.
    """
    alive = set()
    for fs in cells:
        alive.update(fs)
    cof = {}
    for f in alive:
        c = 0
        for b in wbits:
            if not f & b and f | b in alive:
                c += 1
        cof[f] = c
    queue = [f for f, c in cof.items() if c == 1]
    while queue:
        f = queue.pop()
        if f not in alive or cof[f] != 1:
            continue
        tau = None
        for b in wbits:
            if not f & b and f | b in alive:
                tau = f | b
                break
        if tau is None:
            continue
        alive.discard(f)
        alive.discard(tau)
        for gone in (f, tau):
            for b in wbits:
                if gone & b:
                    sub = gone ^ b
                    if sub in alive:
                        cof[sub] -= 1
                        if cof[sub] == 1:
                            queue.append(sub)
    out: list[list[int]] = [[] for _ in range(len(cells))]
    for f in sorted(alive):  # ascending faces keep the sparse eliminations' fill-in low
        out[f.bit_count()].append(f)
    return out


def _join(a: list[int], b: list[int]) -> list[int]:
    """Reduced homology dimensions of a join from its parts', all indexed from degree -1."""
    out = [0] * (len(a) + len(b) - 1)
    for c, x in enumerate(a):
        if x:
            for d, y in enumerate(b):
                out[c + d] += x * y
    return out


def _components(w: int, ideal: SquareFreeIdeal) -> list[int]:
    """The vertex sets of the components of the generators inside W.

    Two generators are joined when they share a vertex.  The generators
    inside W, those meeting no vertex outside it, are an index set on the
    ideal's incidence rows; each component grows from its lowest index by
    the rows of the vertices it gains, so no generator is visited twice.
    """
    gens = ideal.gens
    inside = ((1 << len(gens)) - 1) & ~ideal.meeting(((1 << ideal.n) - 1) ^ w)
    comps: list[int] = []
    while inside:
        low = inside & -inside
        comp = new = gens[low.bit_length() - 1]
        inside ^= low
        while new:
            reach = ideal.meeting(new) & inside
            inside ^= reach
            while reach:
                low = reach & -reach
                new |= gens[low.bit_length() - 1]
                reach ^= low
            new &= ~comp
            comp |= new
        comps.append(comp)
    return comps


class _Collapsed(NamedTuple):
    """One evaluated W: its Euler characteristic and its collapsed relative cells."""

    w: int
    chi: int  # reduced Euler characteristic of the restriction to W
    counts: tuple[int, ...]  # collapsed cells of each size 0..|W| - 1
    faces: array  # the collapsed cells, grouped by size in ascending order


def _cell_bits(w: int) -> list[int]:
    """The single-bit masks of W - v, ascending, v the lowest vertex of W."""
    rest = w & w - 1
    return [1 << i for i in range(rest.bit_length()) if rest >> i & 1]


def _boundary_faces(cx: _Collapsed, c: int) -> tuple[array, array]:
    """W's collapsed c-cells and (c-1)-cells, each in ascending order."""
    start = sum(cx.counts[:c - 1])
    mid = start + cx.counts[c - 1]
    return cx.faces[mid:mid + cx.counts[c]], cx.faces[start:mid]


def _signed_rows(upper: array, lower: array, wbits: list[int]) -> list[dict[int, int]]:
    """Integer boundary rows from c-cells (upper) to (c-1)-cells (lower).

    Each row is a sparse dict {lower index: +-1}, the sign alternating over
    every vertex of the face, ascending, even where no cell is left.
    """
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = {}
        sign = 1
        for b in wbits:
            if f & b:
                i = index.get(f ^ b)
                if i is not None:
                    row[i] = sign
                sign = -sign
        rows.append(row)
    return rows


def _gf2_rows(rows: list[dict[int, int]]) -> list[int]:
    """The signed rows mod 2, as bitmasks over the lower cells."""
    return [sum(1 << i for i in row) for row in rows]


def _dense_rank(rows: list[dict[int, int]], width: int, p: int | None) -> int:
    """Rank over GF(p), or over Q when p is None, by dense elimination.

    The second route that audits a boundary rank (``linalg`` eliminates
    sparse rows on their highest column against a pivot table): columns
    are taken from the lowest, the first row below the rank with a
    nonzero entry there is swapped up, and the rows under it are cleared.
    Over Q a row is cleared by integer cross-multiplication and divided
    by its content.
    """
    mat = [[row.get(j, 0) for j in range(width)] for row in rows]
    if p is not None:
        mat = [[x % p for x in r] for r in mat]
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow, a = mat[rank], mat[rank][col]
        for r in range(rank + 1, len(mat)):
            c = mat[r][col]
            if not c:
                continue
            if p is None:
                new = [a * x - c * y for x, y in zip(mat[r], prow)]
                g = reduce(gcd, new)
                mat[r] = [x // g for x in new] if g > 1 else new
            else:
                m = c * pow(a, -1, p)
                mat[r] = [(x - m * y) % p for x, y in zip(mat[r], prow)]
        rank += 1
    return rank


def _homology_dims(cx: _Collapsed, fld: Field | None, red: HochsterReduction) -> list[int] | None:
    """Reduced homology dimensions over fld, indexed from degree -1, audited.

    With fld None, over every field, or None when a boundary rank has no
    +-1 certificate.  The relative cells before the collapse share W's
    Euler characteristic.
    """
    f = cx.counts
    dims = list(f)
    if cx.faces:
        ranks = [0] * (len(f) + 1)
        ranks[1] = 1 if (f[0] and len(f) > 1 and f[1]) else 0
        for c in range(2, len(f)):
            if f[c] and f[c - 1]:
                ranks[c] = red.boundary_rank(cx, c, fld)
        if None in ranks:
            return None
        for c in range(len(f)):
            dims[c] = f[c] - ranks[c] - ranks[c + 1]
    _audit_euler(dims, cx.chi, cx.w, fld, "dimensions")
    return dims


def _linked_dims(w: int, chi: int, parts, dims_of: dict, fld: Field | None) -> list[int] | None:
    """A linked W's dimensions, its parts' convolved, audited; None where a part's are."""
    part_dims = [dims_of.get(p, []) for p in parts]  # a part that is no key is a cone
    if None in part_dims:
        return None
    dims = reduce(_join, part_dims)  # one part, W - v: its dimensions, no convolution
    what = "derived" if len(parts) == 1 else "joined"
    _audit_euler(dims, chi, w, fld, what + " dimensions")
    return dims


def _audit_euler(dims: list[int], chi: int, w: int, fld: Field | None, what: str) -> None:
    """W's dimensions must be non-negative, with the Euler characteristic its faces give."""
    _AUDIT["checks"] += 1
    if sum(dims[1::2]) - sum(dims[::2]) != chi or min(dims, default=0) < 0:
        _AUDIT["failures"] += 1
        raise HomologyAuditError(
            f"audit failed: faces of W={vertices_of(w)} give Euler characteristic {chi}, "
            f"but {what} {dims} over {'every field' if fld is None else fld.label()}"
        )


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    n: int
    field: Field
    reduction: HochsterReduction = dc_field(compare=False, repr=False)
    entries: dict[tuple[int, int], int] = dc_field(default_factory=dict)

    @property
    def cones(self) -> int:
        """W skipped because they restrict to a cone."""
        return self.reduction.cones

    @property
    def evaluations(self) -> int:
        """W collapsed and ranked once for the ideal."""
        return len(self.reduction.evaluated)

    @property
    def derived(self) -> int:
        """W whose homology was taken from W - v (a cone link): linked W of one part."""
        return self.reduction.linked_k.count(1)

    @property
    def joined(self) -> int:
        """W whose homology was taken from their components (a join): linked W of two or more."""
        return len(self.reduction.linked_k) - self.derived

    def over(self, fld: Field) -> BettiTable:
        """The table over another field: the entries every field shares, plus the
        field-dependent W ranked from the same collapsed cells over ``fld``."""
        return self.reduction.betti_table(fld)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def reg(self) -> int:
        return max(j - i for (i, j) in self.entries)

    def pd(self) -> int:
        return max(i for (i, j) in self.entries)

    def depth(self) -> int:
        return self.n - self.pd()

    def entries_sorted(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.entries[(i, j)]) for (i, j) in sorted(self.entries)]

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.label(),
            "n": self.n,
            "entries": [{"i": i, "j": j, "beta": b} for i, j, b in self.entries_sorted()],
            "reg": self.reg(),
            "pd": self.pd(),
            "depth": self.depth(),
        }


def oracle_cap() -> int:
    env = os.environ.get(ORACLE_CAP_ENV)
    if env:
        if not env.strip().isdecimal():
            raise ValueError(f"{ORACLE_CAP_ENV} must be a non-negative integer, got {env!r}")
        return int(env)
    return DEFAULT_MAX_ORACLE_VARS


def _physical_memory() -> int | None:
    """Physical memory of this machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_table_memory(n: int) -> None:
    """Refuse the oracle's subset tables when they do not fit in physical memory.

    Counted per subset, in the worst case where every W is a non-cone: the
    list of non-cone W and their Euler characteristics (a list slot plus
    one int object each), the face, link and non-cone byte tables, the
    strings, integers or bytes one byte table is made from or read into,
    and the 2^n-bit sets: one per vertex, at most n + 2 bit planes of the
    Euler characteristics, and at most 16 more alive at once.
    """
    need = ((2 * (8 + 32) + 3 + 4) << n) + ((2 * n + 18) << n >> 3)
    have = _physical_memory()
    if have is not None and need > have:
        raise ResourceLimitError(
            f"the oracle's 2^{n} subset tables need about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


# A set of subsets of n vertices is a 2^n-bit integer with bit a set for
# each subset a it holds.


def _subset_sets(n: int) -> tuple[list[int], int]:
    """lacks[b], the subsets without bit b, and the subsets of odd size, built by doubling.

    Going from k to k + 1 vertices, each set is copied above itself; the
    new bit is lacked by the lower half only, and a subset of the upper
    half is odd exactly when its lower copy is even.
    """
    lacks: list[int] = []
    full, odd = 1, 0
    for k in range(n):
        size = 1 << k
        lacks = [lack | lack << size for lack in lacks]
        lacks.append(full)
        odd |= (full ^ odd) << size
        full |= full << size
    return lacks, odd


def _indicator(masks, n: int) -> int:
    """The set holding exactly the given subsets of n vertices."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _up(x: int, lacks: list[int], skip: int = 0) -> int:
    """The supersets of the subsets in x, adding only bits outside ``skip``.

    For each bit c, every subset without c also brings in itself plus c.
    """
    for c, lack in enumerate(lacks):
        if not skip >> c & 1:
            x |= (x & lack) << (1 << c)
    return x


def _non_faces(gens, lacks: list[int]) -> int:
    """The subsets that hold a generator: the up-closure of the generators."""
    return _up(_indicator(gens, len(lacks)), lacks)


def _uncovered(gens, lacks: list[int], skip: int) -> int:
    """The subsets S with a vertex u, not in ``skip``, that lies in no generator inside S.

    For each u the subsets holding a generator with u are the up-closure
    of those generators; it adds no bit u (they hold it already) and no
    bit of ``skip`` (no generator holds one).  A vertex u that is itself a
    generator lies in one inside every S that holds it.
    """
    full = (1 << (1 << len(lacks))) - 1
    x = _indicator(gens, len(lacks))
    out = 0
    for u, lack in enumerate(lacks):
        ub = 1 << u
        if not skip & ub and ub not in gens:
            out |= full ^ (lack | _up(x ^ (x & lack), lacks, skip | ub))
    return out


_BITS = bytes.maketrans(b"01", b"\0\1")


def _byte_table(x: int, size: int) -> bytes:
    """One byte per subset a < size: 1 if x holds a, else 0."""
    return format(x, f"0{size}b")[::-1].encode().translate(_BITS)


def _link_table(colons: list[tuple[int, ...] | None], lacks: list[int]) -> bytes:
    """links[W] is b + 1 for the bit b of the lowest vertex of W whose link is a cone, or 0.

    The link of v in the restriction to W is the complex of (I : x_v)
    restricted to W - v, so it is a cone iff W - v is uncovered on the
    colon's generators: the uncovered S without v, each moved up to
    S + v.  ``colons[b]`` holds the generators of (I : x_v) for v the
    vertex of bit b, or None when {v} is a generator: v is then no vertex
    of the complex and has no link.  The vertices are walked in ascending
    order, and a W already claimed by a lower vertex keeps it.
    """
    n = len(lacks)
    claimed = 0
    planes = [0] * n.bit_length()
    for b, gens in enumerate(colons):
        if gens is not None:
            mine = (_uncovered(gens, lacks, 1 << b) & lacks[b]) << (1 << b)
            mine ^= mine & claimed
            claimed |= mine
            for k in range(len(planes)):
                if b + 1 >> k & 1:
                    planes[k] |= mine
    return _gather(planes, 1 << n)


def _gather(planes: list[int], size: int) -> bytes:
    """One byte per subset a < size, with bit k of byte a the bit a of planes[k] (k < 8)."""
    x = 0
    for k, plane in enumerate(planes):
        x |= int.from_bytes(_byte_table(plane, size), "little") << k
    return x.to_bytes(size, "little")


def _euler_planes(faces: int, odd: int, lacks: list[int]) -> list[int]:
    """chi[a], the reduced Euler characteristic of the restriction to a, as bit planes.

    chi is the zeta transform of the signed face indicator, where a face F
    counts (-1)^(|F| - 1).  Bit a of ``planes[k]`` is bit k of chi[a] in
    two's complement, the top plane the sign: +1 and -1 set plane 0, only
    -1 (an even face) the sign.  For each bit c, every a holding c adds
    chi[a - c], the planes masked to the sets without c and shifted up, by
    a ripple-carry adder on a copy of the sign plane, so it cannot
    overflow; top planes equal to the one below are then dropped.
    """
    planes = [faces, faces & ~odd]
    for c, lack in enumerate(lacks):
        planes.append(planes[-1])
        carry = 0
        for k, p in enumerate(planes):
            q = (p & lack) << (1 << c)
            s = p ^ q
            planes[k] = s ^ carry
            carry = p & q | carry & s
        while len(planes) > 1 and planes[-1] == planes[-2]:
            planes.pop()
    return planes


def _read_planes(planes: list[int], size: int, selector: bytes) -> list[int]:
    """The values at the subsets a < size with selector[a] set, from their bit planes.

    Eight planes at a time are gathered into one byte a subset and read at
    the selected subsets, the top byte first, sign-extended and signed.
    """
    values: list[int] = []
    for low in range((len(planes) - 1) & -8, -1, -8):
        lane = bytes(compress(_gather(planes[low:low + 8], size), selector))
        if low + 8 >= len(planes):
            k = len(planes) - low  # planes in the top byte, the last the sign
            lane = lane.translate(bytes((b - (b >> k - 1 << k)) & 255 for b in range(256)))
            values = array("b", lane).tolist()
        else:
            values = [v << 8 | b for v, b in zip(values, lane)]
    return values


class HochsterReduction:
    """The Hochster sum of one ideal, decided wherever it holds over every field.

    Each evaluated W keeps its collapsed relative cells, each linked W its
    number k of parts and the parts (one flat array): W - v for a cone link
    of v, or its k >= 2 components.  ``entries`` sums the W whose
    dimensions hold over every field; ``field_dependent`` keeps the rest
    in ascending order as (W, chi, parts, cells): an evaluated W (no
    parts) with a matrix of no +-1 certificate, or a linked W with such a
    part (cells None).  ``known`` holds the other parts' dimensions.
    ``certified`` maps (W, c), the boundary of W's c-cells, to its
    certified rank, or to None where a pivot was not +-1.
    """

    def __init__(self, ideal: SquareFreeIdeal):
        self.ideal = ideal
        self.evaluated: list[_Collapsed] = []
        self.linked_w = array("q")
        self.linked_k = array("q")
        self.linked_parts = array("q")
        self.certified: dict[tuple[int, int], int | None] = {}
        self.entries: dict[tuple[int, int], int] = {(0, 0): 1}
        self.field_dependent: list[tuple[int, int, tuple[int, ...], _Collapsed | None]] = []
        self.known: dict[int, list[int]] = {}
        self.cones = 0  # W skipped because they restrict to a cone
        self.cells_before_collapse = 0  # relative cells of every evaluated W, summed
        self.cells_after_collapse = 0

    def boundary_rank(self, cx: _Collapsed, c: int, fld: Field | None) -> int | None:
        """Rank over fld (None: every field) of the boundary from W's c- to its (c-1)-cells.

        The first call, from the walk, eliminates the signed rows with +-1
        pivots: a rank so certified is checked against the GF(2) rank and
        serves every field.  Where a pivot is not +-1 there is no such rank
        (None), and each field ranks the matrix by itself, checked against
        a dense elimination over that field.
        """
        key = (cx.w, c)
        if key not in self.certified:
            rows = _signed_rows(*_boundary_faces(cx, c), _cell_bits(cx.w))
            cert = self.certified[key] = rank_unimodular(rows)
            if cert is not None:
                _audit_rank(key, rank_gf2(_gf2_rows(rows)), GF2, cert, _CERTIFIED)
        cert = self.certified[key]
        if cert is not None or fld is None:
            return cert
        upper, lower = _boundary_faces(cx, c)
        rows = _signed_rows(upper, lower, _cell_bits(cx.w))
        if fld.p is None:
            rank = rank_rationals(rows)
        elif fld.p == 2:
            rank = rank_gf2(_gf2_rows(rows))
        else:
            rank = rank_mod_p(rows, fld.p)
        _audit_rank(key, rank, fld, _dense_rank(rows, len(lower), fld.p), _DENSE)
        return rank

    def certificate_counts(self) -> dict[str, int]:
        """Boundary matrices ranked once for every field, and those ranked per field."""
        failed = sum(rank is None for rank in self.certified.values())
        return {"ranked_once": len(self.certified) - failed, "ranked_per_field": failed}

    def betti_table(self, fld: Field) -> BettiTable:
        """The entries every field shares, plus the field-dependent W folded over fld.

        Those W are ranked or convolved, and audited, over fld, ascending.
        """
        entries = dict(self.entries)
        dims_of = dict(self.known)
        for w, chi, parts, cx in self.field_dependent:
            dims = dims_of[w] = (_linked_dims(w, chi, parts, dims_of, fld) if cx is None
                                 else _homology_dims(cx, fld, self))
            _add_homology(entries, w, dims)
        table = BettiTable(self.ideal.n, fld, self, entries)
        _audit_first_syzygies(self.ideal, table)
        return table


_DENSE = "a dense elimination gives {}"
_CERTIFIED = "its +-1 pivots certify rank {} over every field"


def _audit_rank(key: tuple[int, int], rank: int, fld: Field, want: int, why: str) -> None:
    """A boundary rank over fld must equal the one its second route gives."""
    _AUDIT["checks"] += 1
    if rank != want:
        _AUDIT["failures"] += 1
        w, c = key
        raise HomologyAuditError(
            f"audit failed: W={vertices_of(w)} has boundary rank {rank} over {fld.label()} in "
            f"degree {c - 1}, but {why.format(want)}"
        )


def _add_homology(entries: dict[tuple[int, int], int], w: int, dims: list[int]) -> None:
    j = w.bit_count()
    for c, d in enumerate(dims):
        if d:
            i = j - c  # homological degree for homology degree c - 1
            if i < 1:
                raise HomologyAuditError(f"unexpected top homology for W={vertices_of(w)}")
            entries[(i, j)] = entries.get((i, j), 0) + d


class _SubsetTables(NamedTuple):
    """What the walk reads of the 2^n subsets."""

    face: bytes  # face[a] is 1 when a is a face, else 0
    non_cones: list[int]  # the nonempty W that restrict to no cone, ascending
    chi: list[int]  # the reduced Euler characteristic of the restriction to each non-cone W
    links: bytes  # see ``_link_table``
    cones: int  # the number of W that restrict to a cone


def _subset_tables(ideal: SquareFreeIdeal) -> _SubsetTables:
    """The faces, the cones and the cone links as 2^n-bit sets, then as tables.

    All three come from one covering test (``_non_faces``, ``_uncovered``,
    ``_link_table``), and chi from the faces, read at the non-cone W only.
    Each bit set is dropped once its table is made.
    """
    n = ideal.n
    _check_table_memory(n)
    size = 1 << n
    full = (1 << size) - 1
    lacks, odd = _subset_sets(n)
    face_set = full ^ _non_faces(ideal.gens, lacks)
    face = _byte_table(face_set, size)
    planes = _euler_planes(face_set, odd, lacks)
    del odd, face_set
    cones = _uncovered(ideal.gens, lacks, 0)
    count = cones.bit_count()
    selector = _byte_table(full ^ cones ^ 1, size)
    del full, cones
    chi = _read_planes(planes, size, selector)
    del planes
    colons = [None if 1 << b in ideal.gens else ideal.colon(1 << b).gens for b in range(n)]
    links = _link_table(colons, lacks)
    return _SubsetTables(face, list(compress(range(size), selector)), chi, links, count)


def _reduce(ideal: SquareFreeIdeal) -> HochsterReduction:
    """Walk the non-cone W once, ascending, deciding each one's homology as it is reached.

    A W with a cone link or split generators is linked and convolves its
    parts' dimensions.  Any other W is evaluated relative to the star of
    its lowest vertex: its relative cells are collapsed and ranked through
    the +-1 certificates.  A W that depends on a matrix with no
    certificate, itself or through a part, is kept for each field to fold.
    """
    n = ideal.n
    cap = oracle_cap()
    if n > cap:
        raise ResourceLimitError(
            f"{n} variables exceed the oracle cap of {cap}; "
            f"set {ORACLE_CAP_ENV} to raise it"
        )
    red = HochsterReduction(ideal)
    if ideal.is_zero:
        return red
    if any(g == 0 for g in ideal.gens):
        raise ValueError("the unit ideal has no Betti table")

    tables = _subset_tables(ideal)
    red.cones = tables.cones
    face, links = tables.face, tables.links
    dims_of: dict[int, list[int] | None] = {}  # every non-cone W below; None: field-dependent

    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= n)  # holds any n-bit face
    for w, chi in zip(tables.non_cones, tables.chi):
        link = links[w]
        if link:
            # the link of v is a cone, so the restriction to W is homotopy
            # equivalent to the restriction to W - v: a join of one part
            parts = [w ^ (1 << link - 1)]
        else:
            # the restriction to W is the join of the restrictions to the
            # components of its generators, each a non-cone below W
            parts = _components(w, ideal)
        if link or len(parts) > 1:
            red.linked_w.append(w)
            red.linked_k.append(len(parts))
            red.linked_parts.extend(parts)
            record = (w, chi, tuple(parts), None)
            dims = dims_of[w] = _linked_dims(w, chi, parts, dims_of, None)
        else:
            # the relative cells: faces avoiding the lowest vertex v whose
            # union with v is no face, i.e. the faces outside the star of v
            vbit = w & -w
            cells: list[list[int]] = [[] for _ in range(w.bit_count())]
            for s in submasks(w ^ vbit):
                if face[s] and not face[s | vbit]:
                    cells[s.bit_count()].append(s)
            work = _collapse(cells, _cell_bits(w))
            counts = tuple(map(len, work))
            red.cells_before_collapse += sum(map(len, cells))
            red.cells_after_collapse += sum(counts)
            cx = _Collapsed(w, chi, counts, array(code, chain.from_iterable(work)))
            red.evaluated.append(cx)
            record = (w, chi, (), cx)
            dims = dims_of[w] = _homology_dims(cx, None, red)
        if dims is None:
            red.field_dependent.append(record)
            red.known.update((p, dims_of[p]) for p in record[2] if dims_of.get(p) is not None)
        else:
            _add_homology(red.entries, w, dims)
    return red


def betti_table_ideal(ideal: SquareFreeIdeal, fld: Field = GF2) -> BettiTable:
    """Full graded Betti table of R/I via the Hochster sum over subsets.

    ``over`` on the result gives the table over another field from the
    same reduction.
    """
    return _reduce(ideal).betti_table(fld)


def _audit_first_syzygies(ideal: SquareFreeIdeal, table: BettiTable) -> None:
    """beta_{1,j} must count the minimal generators of degree j."""
    _AUDIT["checks"] += 1
    want = Counter(g.bit_count() for g in ideal.gens)
    got = {j: b for (i, j), b in table.entries.items() if i == 1}
    if got != want:
        _AUDIT["failures"] += 1
        raise HomologyAuditError(
            f"audit failed: beta_1 by degree {dict(sorted(got.items()))} but generator "
            f"degrees {dict(sorted(want.items()))} over {table.field.label()}"
        )


@dataclass(frozen=True)
class HomologicalInvariants:
    reg: int
    pd: int
    depth: int
    is_cm: bool
    has_linear_resolution: bool | None  # None when not applicable
    gen_degree: int | None

    def to_json_dict(self) -> dict:
        return {
            "reg": self.reg,
            "pd": self.pd,
            "depth": self.depth,
            "is_CM": self.is_cm,
            "has_linear_resolution": self.has_linear_resolution,
            "gen_degree": self.gen_degree,
        }


def homological_invariants(table: BettiTable, height: int) -> HomologicalInvariants:
    """Derive reg/pd/depth/CM/linearity from a Betti table and the height.

    Cohen-Macaulayness is pd == height (Auslander-Buchsbaum against the
    dimension of the Stanley-Reisner ring).  Linear resolution requires
    all generators in one degree r with reg == r - 1; mixed generator
    degrees and the zero ideal report not-applicable.
    """
    reg, pd, depth = table.reg(), table.pd(), table.depth()
    gen_degrees = sorted(j for (i, j) in table.entries if i == 1)
    if not gen_degrees:
        linear, gen_degree = None, None
    elif gen_degrees[0] != gen_degrees[-1]:
        linear, gen_degree = None, None
    else:
        gen_degree = gen_degrees[0]
        linear = reg == gen_degree - 1
    return HomologicalInvariants(reg, pd, depth, pd == height, linear, gen_degree)
