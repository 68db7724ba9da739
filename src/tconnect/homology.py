"""Graded Betti numbers of R/I by evaluating Hochster's sum.

For a square-free ideal I, beta_{i,j}(R/I) with i >= 1 is the sum over
all j-subsets W of the reduced homology dimension in degree j - i - 1 of
the restriction to W of the Stanley-Reisner complex of I (the faces are
the subsets containing no generator).  beta_{0,0} is set to 1 directly.

The sum asks three questions of every subset: is it a face, is it a
cone, and is the link of one of its vertices a cone?  All three are one
covering test, answered for all 2^n subsets at once on sets of subsets
held as 2^n-bit integers (bit a for subset a).  The subsets that hold a
generator are the up-closure of the generators: bit by bit, every set
without bit c brings in itself plus c, a shift by 2^c.  The rest are the
faces, kept as one byte per subset.  A subset W with a vertex u lying in
no generator inside W restricts to a cone (u joins every face), so it
contributes nothing and is skipped without evaluation.  Vertex by
vertex, the W that hold u and no generator through u are those outside
the up-closure of the generators through u; their union is the set of
cones, and the rest are the non-cone W, listed once in ascending order.
The complex {empty set} has one-dimensional homology in degree -1.

A non-cone W is then reduced by a strong collapse (Barmak and Minian's
dominated vertices) where it can be.  The restriction to W is the union
of its deletion of v (the restriction to W - v) and the star of v, which
meet in the link of v.  When that link is a cone, both the star and the
link are contractible, so the restriction to W has the homology of the
restriction to W - v, degree by degree: its beta moves from (i, j - 1) to
(i + 1, j) with no evaluation.  The link of v restricted to W - v is the
complex of the colon ideal (I : x_v), so the cone test is the one above,
made on the colon's generators for the sets without v, each then moved
up by v.  The vertices are taken in ascending order and each W keeps the
first whose link is a cone, in a byte table read at the non-cone W only
(the lcm lattice of I: Gasharov, Peeva and Welker, Math. Res. Lett.
1999).  The non-cone W are walked in ascending order, so W - v is always
done before W.  The memory of every table and list is estimated against
physical memory before any is allocated.

A non-cone W with no cone link is joined when the generators inside it
fall into two or more components (two generators meet when they share a
vertex).  A subset of W is then a face exactly when its part in each
component is one, so the restriction to W is the join of the
restrictions to the components; each component is a non-cone below W,
which the walk has already handled.  Over a field the reduced homology
of a join is the convolution H_{k+1}(A * B) = sum over i + j = k of
H_i(A) (x) H_j(B) (Milnor 1956; Bjorner, "Topological methods", 1995):
with dimensions indexed from degree -1, the parts multiply like
polynomials.  A derived W is the join of one part, W - v, so both kinds
are recorded the same way: a linked W keeps its parts (W - v, or its
components) and no faces.  Over each field its dimensions are the
convolution of its parts' dimensions over that same field, with no
collapse and no rank; a part that is a cone (W - v may be one) has no
homology.  The reduced Euler characteristic of a join is minus the
product of its parts', so the Euler audit below checks the convolution:
a product shifted by one degree fails it whenever that characteristic is
nonzero.

The remaining W are evaluated relative to the star of v, the lowest
vertex of W.  The star is a cone (or void, when {v} is a generator), so
its augmented chain complex is acyclic and the reduced homology of the
restriction to W is that of the pair (restriction, star), in every
degree and over every field.  The relative chain complex has one cell
for each face outside the star: each s in W - v that is a face while
s + v is not, one scan of 2^(|W| - 1) subsets.  The empty set is
a cell exactly when the star is void.  The boundary of a cell is its
simplicial boundary with the faces in the star left out; the signs still
alternate over every vertex of the cell.  Free pairs of cells are then
removed, an elementary reduction of the chain complex (Kaczynski, Mrozek
and Slusarek, Comput. Math. Appl. 1998; Mrozek and Batko's coreductions,
Discrete Comput. Geom. 2009, use the same idea), which keeps the
homology.  On fig1 induced on vertices 1..12 at t = 5 this leaves 618
cells of the 30 100 faces the evaluated W hold, and 4 boundary matrices
to rank.  None of this depends on the field.  The scan, the linked W and
the collapsed cells (kept in one array per W, of the narrowest machine
integer that holds n bits, each size in ascending order) form a
``HochsterReduction``, built once per ideal; only the boundary ranks and
the convolutions depend on the field.  ``betti_table_ideal`` ranks the
reduction over one field, and ``BettiTable.over`` ranks the same
reduction over another.  The convolutions of the linked W, their audits
and the sum of the table depend only on the evaluated W's dimensions, so
the reduction keeps each such fold under the dimensions that made it, and
a field whose evaluated W have the same dimensions takes a copy of its
entries.  The first field to need a boundary matrix, GF(2) included,
eliminates its integer rows once with +-1 pivots
(``linalg.rank_unimodular``); when every pivot is +-1 that rank holds
over every field, and the reduction keeps it for all of them.  Only a
matrix that meets another pivot (the projective plane has one) is ranked
again over each field by itself.

Every W in the sum is audited: an evaluated W over every field, a linked
W once per fold (a second field with the same evaluated dimensions would
audit identical inputs).  Its alternating homology sum must equal chi[W],
the reduced Euler characteristic from the Euler table: the zeta
transform (subset sums) of the signed face indicator, built once.  The
star of v has reduced Euler characteristic 0, so the alternating count
of the relative cells is chi[W] too.  No dimension may be negative.  For
an evaluated W this checks its cells and their collapse; for a linked W,
the convolution of its parts.  A wrong derivation changes the Euler
characteristic by that of the link, so it fails the audit whenever the
link's is nonzero.  The first syzygies are audited once per table:
beta_{1,j} must equal the number of generators of degree j.  Neither
audit sees the ranks (the rank terms cancel in the alternating sum, and
after the collapse the top cell W - v, where it is left, meets no cell
below it, so no top matrix is ranked), so every rank is checked once
by a second route.  A certified rank is checked, when it is made,
against the GF(2) rank of the same matrix.  A rank of a matrix that fell
back must equal a dense elimination over its field, GF(2) included.

All arithmetic is exact: boundary rows are sparse dicts {lower cell
index: +-1}, eliminated over the integers with +-1 pivots.  Over GF(2)
they are taken as bitmasks and ranked by XOR elimination.  A matrix that
falls back has its rows built again for each field, and is ranked over
GF(2) that way, over GF(p) by sparse modular elimination and over Q by
sparse fraction-free integer elimination.  The collapse and the boundary
rows walk one list of the single-bit masks of W - v.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import chain, compress, islice
from math import gcd
from operator import add, or_, sub
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


def _components(w: int, gens: tuple[int, ...]) -> list[int]:
    """The vertex sets of the components of the generators inside W.

    Two generators are joined when they share a vertex.
    """
    comps: list[int] = []
    for g in gens:
        if not g & ~w:
            rest = [c for c in comps if not c & g]
            comps = rest + [reduce(or_, (c for c in comps if c & g), g)]
    return comps


def _euler(counts) -> int:
    """Alternating sum of face counts or homology dimensions indexed from degree -1."""
    return sum(counts[1::2]) - sum(counts[::2])


class _Collapsed(NamedTuple):
    """One evaluated W: its Euler characteristic and its collapsed relative cells."""

    w: int
    chi: int  # reduced Euler characteristic of the restriction to W
    counts: tuple[int, ...]  # collapsed cells of each size 0..|W| - 1
    faces: array  # the collapsed cells, grouped by size in ascending order


def _cell_bits(w: int) -> list[int]:
    """The single-bit masks of W - v in ascending order, v the lowest vertex of W.

    These are the vertices a relative cell of W may hold.
    """
    rest = w & w - 1
    return [1 << i for i in range(rest.bit_length()) if rest >> i & 1]


def _boundary_faces(cx: _Collapsed, c: int) -> tuple[array, array]:
    """W's collapsed c-cells and (c-1)-cells, each in ascending order."""
    start = sum(cx.counts[:c - 1])
    mid = start + cx.counts[c - 1]
    return cx.faces[mid:mid + cx.counts[c]], cx.faces[start:mid]


def _signed_rows(upper: array, lower: array, wbits: list[int]) -> list[dict[int, int]]:
    """Integer boundary rows from c-cells (upper) to (c-1)-cells (lower).

    Each row is a sparse dict {lower index: +-1}, the sign alternating
    over every vertex of the face in ascending order, including those
    whose removal leaves no cell (skipped).
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


def _homology_dims(cx: _Collapsed, fld: Field, red: HochsterReduction) -> list[int]:
    """Reduced homology dimensions over fld, indexed from degree -1.

    The boundary ranks come from ``red``, which shares them between fields
    where it can.  Audits every evaluation: the alternating sum of the
    dimensions must be the Euler characteristic of the restriction to W,
    which the relative cells before the collapse share.
    """
    f = cx.counts
    dims = list(f)
    if cx.faces:
        ranks = [0] * (len(f) + 1)
        ranks[1] = 1 if (f[0] and len(f) > 1 and f[1]) else 0
        for c in range(2, len(f)):
            if f[c] and f[c - 1]:
                ranks[c] = red.boundary_rank(cx, c, fld)
        for c in range(len(f)):
            dims[c] = f[c] - ranks[c] - ranks[c + 1]
    _audit_euler(dims, cx.chi, cx.w, fld, "dimensions")
    return dims


def _audit_euler(dims: list[int], chi: int, w: int, fld: Field, what: str) -> None:
    """W's dimensions must be non-negative, with the Euler characteristic its faces give."""
    _AUDIT["checks"] += 1
    if _euler(dims) != chi or min(dims, default=0) < 0:
        _AUDIT["failures"] += 1
        raise HomologyAuditError(
            f"audit failed: faces of W={vertices_of(w)} give Euler characteristic {chi}, "
            f"but {what} {dims} over {fld.label()}"
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
        """W collapsed once for the ideal and ranked over each field."""
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
        """The table over another field, ranked from the same collapsed cells."""
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
    Euler table and the list of non-cone W (a list slot plus one int
    object each), the list slots a fold's slices copy (at most one and a
    half), the face and link byte tables and the two halves of the signed
    face indicator, the strings or integer one byte table is made from,
    and the 2^n-bit sets: one per vertex and at most 16 more alive at once.
    """
    need = ((2 * (8 + 32) + 12 + 4 + 4) << n) + ((n + 16) << n >> 3)
    have = _physical_memory()
    if have is not None and need > have:
        raise ResourceLimitError(
            f"the oracle's 2^{n} subset tables need about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


def _zeta(table: list[int], op) -> list[int]:
    """Fold each entry over its subsets in place: table[a] = op over table[s], s ⊆ a.

    Bit by bit, every a with the bit set takes op(table[a], table[a - bit]),
    done by slices: one per block of such a when the blocks are long, one
    per offset inside a block (a stride-2*step progression) when they are
    short, so no bit costs more than sqrt(len(table)) slice operations.
    """
    size = len(table)
    step = 1
    while step < size:
        span = step << 1
        if step * step < size:
            for r in range(step):
                table[step + r::span] = map(op, table[step + r::span], table[r::span])
        else:
            for hi in range(step, size, span):
                table[hi:hi + step] = map(op, table[hi:hi + step], table[hi - step:hi])
        step = span
    return table


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
    order, and a W already claimed by a lower vertex keeps it.  The
    entries are gathered one bit plane at a time.
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
    links = 0
    for k, plane in enumerate(planes):
        links |= int.from_bytes(_byte_table(plane, 1 << n), "little") << k
    return links.to_bytes(1 << n, "little")


class HochsterReduction:
    """The field-independent part of the Hochster sum of one ideal.

    Each evaluated W keeps its collapsed relative cells.  Each linked W keeps its
    number k of parts, the parts (one flat array for all linked W) and its
    Euler characteristic: one part W - v for a cone link of v, or its
    k >= 2 components for a join.  Both lists are in ascending order of W.
    ``betti_table`` ranks the complexes over one field.  ``folds`` maps the
    evaluated W's dimensions (a tuple per W, in their order) to the
    entries of the table they give.

    ``certified`` maps (W, c), the boundary of W's c-faces, to its rank
    from a +-1-pivot elimination, which holds over every field, or to None
    where a pivot was not +-1.  The first field to rank the matrix fills
    the entry; every later one reads it and ranks on its own only where it
    is None.  The cell counts before and after the collapse are summed
    over the evaluated W.
    """

    def __init__(self, ideal: SquareFreeIdeal):
        self.ideal = ideal
        self.evaluated: list[_Collapsed] = []
        self.linked_w = array("q")
        self.linked_k = array("q")
        self.linked_parts = array("q")
        self.linked_chi = array("q")
        self.certified: dict[tuple[int, int], int | None] = {}
        self.folds: dict[tuple[tuple[int, ...], ...], dict[tuple[int, int], int]] = {}
        self.cones = 0  # W skipped because they restrict to a cone
        self.cells_before_collapse = 0  # relative cells of every evaluated W, summed
        self.cells_after_collapse = 0

    def boundary_rank(self, cx: _Collapsed, c: int, fld: Field) -> int:
        """Rank over fld of the boundary map from W's c-cells to its (c-1)-cells.

        Every rank is checked once by a second route.  The first field to
        need the matrix eliminates its signed rows with +-1 pivots; a rank
        so certified is checked against the GF(2) rank of the same matrix
        and then serves every field.  A matrix with a pivot that is not +-1
        is ranked over each field by itself and checked against a dense
        elimination over that field.
        """
        key = (cx.w, c)
        cert = self.certified.get(key)
        if cert is not None:
            return cert
        upper, lower = _boundary_faces(cx, c)
        rows = _signed_rows(upper, lower, _cell_bits(cx.w))
        if key not in self.certified:
            cert = self.certified[key] = rank_unimodular(rows)
            if cert is not None:
                _audit_rank(key, rank_gf2(_gf2_rows(rows)), GF2, cert, _CERTIFIED)
                return cert
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
        """Rank and audit every evaluated W over fld, fold the linked W, and sum the table.

        The fold (each linked W's parts convolved, its Euler characteristic
        audited, the entries added) depends only on the evaluated W's
        dimensions, so a field that gives the same dimensions as an earlier
        one takes a copy of that fold's entries.
        """
        dims_of = {cx.w: _homology_dims(cx, fld, self) for cx in self.evaluated}
        key = tuple(map(tuple, dims_of.values()))
        entries = self.folds.get(key)
        if entries is None:
            entries = self.folds[key] = self._fold(dims_of, fld)
        table = BettiTable(self.ideal.n, fld, self, dict(entries))
        _audit_first_syzygies(self.ideal, table)
        return table

    def _fold(self, dims_of: dict[int, list[int]], fld: Field) -> dict[tuple[int, int], int]:
        """The table's entries from the evaluated W's dimensions (dims_of, extended in place)."""
        entries = {(0, 0): 1}
        for w, dims in dims_of.items():
            _add_homology(entries, w, dims)
        parts = iter(self.linked_parts)
        for w, k, chi in zip(self.linked_w, self.linked_k, self.linked_chi):
            # every part is below W, so it came first; a missing part is a cone
            dims = reduce(_join, [dims_of.get(p, []) for p in islice(parts, k)])
            _audit_euler(dims, chi, w, fld, "derived dimensions" if k == 1 else "joined dimensions")
            dims_of[w] = dims
            _add_homology(entries, w, dims)
        return entries


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
    chi: list[int]  # chi[a] is the reduced Euler characteristic of the restriction to a
    non_cones: list[int]  # the nonempty W that restrict to no cone, ascending
    links: bytes  # see ``_link_table``
    cones: int  # the number of W that restrict to a cone


def _subset_tables(ideal: SquareFreeIdeal) -> _SubsetTables:
    """The faces, the cones and the cone links as 2^n-bit sets, then as tables.

    All three come from the same covering test (``_non_faces``,
    ``_uncovered``, ``_link_table``).  The Euler table is the zeta
    transform of the signed face indicator: a face F counts
    (-1)^(|F| - 1), so the empty face counts -1.  Each bit set is
    dropped once its table is made.
    """
    n = ideal.n
    _check_table_memory(n)
    size = 1 << n
    full = (1 << size) - 1
    lacks, odd = _subset_sets(n)
    face_set = full ^ _non_faces(ideal.gens, lacks)
    odd &= face_set
    face = _byte_table(face_set, size)
    plus, minus = _byte_table(odd, size), _byte_table(face_set ^ odd, size)
    del odd, face_set
    cones = _uncovered(ideal.gens, lacks, 0)
    count = cones.bit_count()
    non_cones = list(compress(range(size), _byte_table(full ^ cones ^ 1, size)))
    del full, cones
    colons = [None if 1 << b in ideal.gens else ideal.colon(1 << b).gens for b in range(n)]
    links = _link_table(colons, lacks)
    del lacks
    chi = list(map(sub, plus, minus))
    del plus, minus
    return _SubsetTables(face, _zeta(chi, add), non_cones, links, count)


def _reduce(ideal: SquareFreeIdeal) -> HochsterReduction:
    """Scan every W once: skip cones, link W with a cone link or split generators.

    The walk reads the tables of ``_subset_tables`` and visits only the
    non-cone W.  Each W with neither a cone link nor split generators is
    evaluated relative to the star of its lowest vertex, and its relative
    cells are collapsed.
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
    face, chi, links = tables.face, tables.chi, tables.links

    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= n)  # holds any n-bit face
    for w in tables.non_cones:
        link = links[w]
        if link:
            # the link of v is a cone, so the restriction to W is homotopy
            # equivalent to the restriction to W - v: a join of one part
            parts = [w ^ (1 << link - 1)]
        else:
            # the restriction to W is the join of the restrictions to the
            # components of its generators, each a non-cone below W
            parts = _components(w, ideal.gens)
        if link or len(parts) > 1:
            red.linked_w.append(w)
            red.linked_k.append(len(parts))
            red.linked_parts.extend(parts)
            red.linked_chi.append(chi[w])
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
            faces = array(code, chain.from_iterable(work))
            red.evaluated.append(_Collapsed(w, chi[w], counts, faces))
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
