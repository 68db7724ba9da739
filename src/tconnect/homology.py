"""Graded Betti numbers of R/I by evaluating Hochster's sum.

For a square-free ideal I, beta_{i,j}(R/I) with i >= 1 is the sum over
all j-subsets W of the reduced homology dimension in degree j - i - 1 of
the restriction to W of the Stanley-Reisner complex of I (the faces are
the subsets containing no generator).  beta_{0,0} is set to 1 directly.

One 2^n table answers both questions the sum asks of a subset:
covered[a] is the union of the generators inside a, so a is a face
exactly when covered[a] == 0.  A subset W with a vertex lying in no
generator inside W (covered[W] != W) restricts to a cone, so it
contributes nothing and is skipped without evaluation.  The complex
{empty set} has one-dimensional homology in degree -1.

A non-cone W is then reduced by a strong collapse (Barmak and Minian's
dominated vertices) where it can be.  The restriction to W is the union
of its deletion of v (the restriction to W - v) and the star of v, which
meet in the link of v.  When that link is a cone, both the star and the
link are contractible, so the restriction to W has the homology of the
restriction to W - v, degree by degree: its beta moves from (i, j - 1) to
(i + 1, j) with no evaluation.  The link of v restricted to W - v is the
complex of the colon ideal (I : x_v), so the cone test is the one above,
on the ``covered`` table of (I : x_v) over the subsets avoiding v.  These
colon tables are built one vertex at a time, and ``via[W]`` records v + 1
for the first vertex whose link is a cone (0 for none).  W is walked in
ascending order, so W - v is always done before W.  The memory of every
table is estimated against physical memory before any is allocated.

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

The remaining W are evaluated: each complex is shrunk by elementary
collapses (removing free face pairs), which preserves the homotopy type
and hence every homology dimension.  None of this depends on the field.
The scan, the linked W and the collapsed complexes (their faces kept in
one array per W, of the narrowest machine integer that holds n bits,
each size in ascending order) form a ``HochsterReduction``, built once
per ideal; only the boundary ranks and the convolutions depend on the
field.  ``betti_table_ideal`` ranks the reduction over one field, and
``BettiTable.over`` ranks the same reduction over another.  GF(2) ranks
every boundary matrix on its own.  The first other field to need a
matrix eliminates its integer rows once with +-1 pivots
(``linalg.rank_unimodular``); when every pivot is +-1 that rank holds
over every field, and the reduction keeps it for all of them.  Only a
matrix that meets another pivot (the projective plane has one) is ranked
again over each field by itself.

Every W in the sum is audited over every field.  Its alternating
homology sum must equal chi[W], the reduced Euler characteristic from
the Euler table: the zeta transform (subset sums) of the signed face
indicator, built once.  No dimension may be negative.  For an evaluated
W this checks its face lists and their collapse; for a linked W, the
convolution of its parts.  A wrong derivation changes the Euler
characteristic by that of the link, so it fails the audit whenever the
link's is nonzero.  These audits do not check the ranks: the rank terms
cancel in the alternating sum.  The ranks are audited once per table
instead: beta_{1,j} must equal the number of generators of degree j.
A rank certified over every field is also the GF(2) rank, so wherever
the reduction knows both for one matrix they must agree.

All arithmetic is exact: GF(2) boundary rows are bitmasks ranked by XOR
elimination; the other rows are sparse dicts {lower face index: +-1},
eliminated over the integers with +-1 pivots.  A matrix that falls back
has its rows built again for each field, and ranked by sparse modular
elimination over GF(p) and by sparse fraction-free integer elimination
over Q.  The collapse and the boundary rows walk one list of
W's single-bit masks.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import chain, islice
from operator import add, or_
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


def _collapse(cards: list[list[int]], wbits: list[int]) -> list[list[int]]:
    """Remove free face pairs until none remain (homotopy-preserving).

    Returns the faces left, by size, each size in ascending order.
    """
    alive = set()
    for fs in cards:
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
    out: list[list[int]] = [[] for _ in range(len(cards))]
    for f in sorted(alive):  # ascending faces keep the sparse eliminations' fill-in low
        out[f.bit_count()].append(f)
    return out


def _single_bits(w: int) -> list[int]:
    """W's single-bit masks in ascending order."""
    return [1 << i for i in range(w.bit_length()) if w >> i & 1]


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
    return sum(x if c % 2 else -x for c, x in enumerate(counts))


class _Collapsed(NamedTuple):
    """One evaluated W: its Euler characteristic and its collapsed faces."""

    w: int
    chi: int  # reduced Euler characteristic of the restriction to W
    counts: tuple[int, ...]  # collapsed faces of each size 0..|W|
    faces: array  # the collapsed faces, grouped by size in ascending order


def _boundary_faces(cx: _Collapsed, c: int) -> tuple[array, array]:
    """W's collapsed c-faces and (c-1)-faces, each in ascending order."""
    start = sum(cx.counts[:c - 1])
    mid = start + cx.counts[c - 1]
    return cx.faces[mid:mid + cx.counts[c]], cx.faces[start:mid]


def _gf2_rows(upper: array, lower: array, wbits: list[int]) -> list[int]:
    """Boundary rows from c-faces (upper) to (c-1)-faces (lower), bitmasks over the lower faces."""
    index = {f: 1 << i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = 0
        for b in wbits:
            if f & b:
                row |= index[f ^ b]
        rows.append(row)
    return rows


def _signed_rows(upper: array, lower: array, wbits: list[int]) -> list[dict[int, int]]:
    """Integer boundary rows from c-faces (upper) to (c-1)-faces (lower).

    Each row is a sparse dict {lower index: +-1}, the sign alternating
    over the face's vertices in ascending order.
    """
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = {}
        sign = 1
        for b in wbits:
            if f & b:
                row[index[f ^ b]] = sign
                sign = -sign
        rows.append(row)
    return rows


def _homology_dims(cx: _Collapsed, fld: Field, red: HochsterReduction) -> list[int]:
    """Reduced homology dimensions over fld, indexed from degree -1.

    The boundary ranks come from ``red``, which shares them between fields
    where it can.  Audits every evaluation: the alternating sum of the
    dimensions must be the Euler characteristic of the complex before its
    collapse.
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
    if _euler(dims) != chi or any(d < 0 for d in dims):
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
        """The table over another field, ranked from the same collapsed complexes."""
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

    Counted per subset: ``covered`` and the Euler table (a list slot plus
    one int object each), one byte of ``via``, half an entry of the one
    colon table alive at a time, and the list slots a fold's slices copy
    (at most one and a half).
    """
    need = (2 * (8 + 32) + 1 + (8 + 32) // 2 + 12) << n
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


def _covered_table(gens, n: int) -> list[int]:
    """covered[a] is the union of the generators (bitmasks over n bits) inside a."""
    covered = [0] * (1 << n)
    for g in gens:
        covered[g] = g
    return _zeta(covered, or_)


def _euler_table(covered: list[int]) -> list[int]:
    """chi[a] is the reduced Euler characteristic of the restriction to a.

    The zeta transform of the signed face indicator: a face F counts
    (-1)^(|F| - 1), so the empty face counts -1.
    """
    chi = [0 if c else a.bit_count() % 2 * 2 - 1 for a, c in enumerate(covered)]
    return _zeta(chi, add)


def _colon_covered(ideal: SquareFreeIdeal, b: int) -> list[int] | None:
    """The ``covered`` table of (I : x_v), v the vertex of bit b.

    It spans the 2^(n-1) subsets that avoid v, each indexed by its mask
    with bit b squeezed out.  None when {v} is a generator: v is then no
    vertex of the complex and has no link.
    """
    bit_b = 1 << b
    if bit_b in ideal.gens:
        return None
    low = bit_b - 1
    squeezed = ((g & low) | (g >> 1 & ~low) for g in ideal.colon(bit_b).gens)
    return _covered_table(squeezed, ideal.n - 1)


def _mark_cone_links(via: bytearray, covered: list[int], cov_v: list[int], b: int) -> None:
    """Set via[W] = b + 1 on each unmarked non-cone W whose link of bit b is a cone.

    The link of v in the restriction to W is the complex of (I : x_v)
    restricted to W - v, so it is a cone iff cov_v[W - v] != W - v.
    """
    bit_b = 1 << b
    low = bit_b - 1
    for s in range(len(cov_v)):
        if cov_v[s] != s:
            w = (s & low) | (s & ~low) << 1 | bit_b
            if not via[w] and covered[w] == w:
                via[w] = b + 1


class HochsterReduction:
    """The field-independent part of the Hochster sum of one ideal.

    Each evaluated W keeps its collapsed complex.  Each linked W keeps its
    number k of parts, the parts (one flat array for all linked W) and its
    Euler characteristic: one part W - v for a cone link of v, or its
    k >= 2 components for a join.  Both lists are in ascending order of W.
    ``betti_table`` ranks the complexes over one field.

    ``certified`` maps (W, c), the boundary of W's c-faces, to its rank
    from a +-1-pivot elimination, which holds over every field, or to None
    where a pivot was not +-1.  The first field other than GF(2) to rank
    the matrix fills the entry; every later one reads it and ranks on its
    own only where it is None.  GF(2) keeps its bitmask elimination, and
    its ranks (``gf2_ranks``) check the certified ones.
    """

    def __init__(self, ideal: SquareFreeIdeal):
        self.ideal = ideal
        self.evaluated: list[_Collapsed] = []
        self.linked_w = array("q")
        self.linked_k = array("q")
        self.linked_parts = array("q")
        self.linked_chi = array("q")
        self.certified: dict[tuple[int, int], int | None] = {}
        self.gf2_ranks: dict[tuple[int, int], int] = {}

    def boundary_rank(self, cx: _Collapsed, c: int, fld: Field) -> int:
        """Rank over fld of the boundary map from W's c-faces to its (c-1)-faces."""
        key = (cx.w, c)
        rank = self.certified.get(key)
        if rank is not None and fld.p != 2:
            return rank
        upper, lower = _boundary_faces(cx, c)
        wbits = _single_bits(cx.w)
        if fld.p == 2:
            gf2 = self.gf2_ranks[key] = rank_gf2(_gf2_rows(upper, lower, wbits))
            if rank is not None:
                self._audit_certificate(key)
            return gf2
        rows = _signed_rows(upper, lower, wbits)
        if key not in self.certified:
            rank = self.certified[key] = rank_unimodular(rows)
            if rank is not None:
                self._audit_certificate(key)
                return rank
        return rank_rationals(rows) if fld.p is None else rank_mod_p(rows, fld.p)

    def _audit_certificate(self, key: tuple[int, int]) -> None:
        """A rank certified over every field is the GF(2) rank too, where both are known."""
        rank, gf2 = self.certified.get(key), self.gf2_ranks.get(key)
        if rank is None or gf2 is None:
            return
        _AUDIT["checks"] += 1
        if rank != gf2:
            _AUDIT["failures"] += 1
            w, c = key
            raise HomologyAuditError(
                f"audit failed: W={vertices_of(w)} has boundary rank {gf2} over GF(2) in "
                f"degree {c - 1}, but its +-1 pivots certify rank {rank} over every field"
            )

    def certificate_counts(self) -> dict[str, int]:
        """Boundary matrices ranked once for every field, and those ranked per field."""
        failed = sum(rank is None for rank in self.certified.values())
        return {"ranked_once": len(self.certified) - failed, "ranked_per_field": failed}

    def betti_table(self, fld: Field) -> BettiTable:
        """Rank every evaluated W over fld, join and audit every W, and sum the table."""
        table = BettiTable(self.ideal.n, fld, self, {(0, 0): 1})
        entries = table.entries
        dims_of: dict[int, list[int]] = {}  # non-cone W -> its dimensions over fld
        for cx in self.evaluated:
            dims = _homology_dims(cx, fld, self)
            dims_of[cx.w] = dims
            _add_homology(entries, cx.w, dims)
        parts = iter(self.linked_parts)
        for w, k, chi in zip(self.linked_w, self.linked_k, self.linked_chi):
            # every part is below W, so it came first; a missing part is a cone
            dims = reduce(_join, [dims_of.get(p, []) for p in islice(parts, k)])
            _audit_euler(dims, chi, w, fld, "derived dimensions" if k == 1 else "joined dimensions")
            dims_of[w] = dims
            _add_homology(entries, w, dims)
        _audit_first_syzygies(self.ideal, table)
        return table


def _add_homology(entries: dict[tuple[int, int], int], w: int, dims: list[int]) -> None:
    j = w.bit_count()
    for c, d in enumerate(dims):
        if d:
            i = j - c  # homological degree for homology degree c - 1
            if i < 1:
                raise HomologyAuditError(f"unexpected top homology for W={vertices_of(w)}")
            entries[(i, j)] = entries.get((i, j), 0) + d


def _reduce(ideal: SquareFreeIdeal) -> HochsterReduction:
    """Scan every W once: skip cones, link W with a cone link or split generators, collapse the rest."""
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

    _check_table_memory(n)
    size = 1 << n
    # a is a face iff covered[a] == 0, and W restricts to a cone iff covered[W] != W
    covered = _covered_table(ideal.gens, n)
    chi = _euler_table(covered)
    via = bytearray(size)
    for b in range(n):
        cov_v = _colon_covered(ideal, b)
        if cov_v is not None:
            _mark_cone_links(via, covered, cov_v, b)
        del cov_v  # one colon table alive at a time

    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= n)  # holds any n-bit face
    for w in range(1, size):
        if covered[w] != w:
            continue  # some vertex of W lies in no generator inside W: a cone
        if via[w]:
            # the link of v is a cone, so the restriction to W is homotopy
            # equivalent to the restriction to W - v: a join of one part
            parts = [w ^ (1 << via[w] - 1)]
        else:
            # the restriction to W is the join of the restrictions to the
            # components of its generators, each a non-cone below W
            parts = _components(w, ideal.gens)
        if via[w] or len(parts) > 1:
            red.linked_w.append(w)
            red.linked_k.append(len(parts))
            red.linked_parts.extend(parts)
            red.linked_chi.append(chi[w])
        else:
            cards: list[list[int]] = [[] for _ in range(w.bit_count() + 1)]
            for s in submasks(w):
                if not covered[s]:
                    cards[s.bit_count()].append(s)
            work = _collapse(cards, _single_bits(w))
            red.evaluated.append(_Collapsed(
                w, chi[w], tuple(map(len, work)), array(code, chain.from_iterable(work))
            ))
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
