"""Graded Betti numbers of R/I by brute-force evaluation of Hochster's sum.

For a square-free ideal I, beta_{i,j}(R/I) with i >= 1 is the sum over
all j-subsets W of the reduced homology dimension in degree j - i - 1 of
the restriction to W of the Stanley-Reisner complex of I (the faces are
the subsets containing no generator).  beta_{0,0} is set to 1 directly.

One 2^n table answers both questions the sum asks of a subset:
covered[a] is the union of the generators inside a, so a is a face
exactly when covered[a] == 0.  A subset W with a vertex lying in no
generator inside W (covered[W] != W) restricts to a cone, so it
contributes nothing and is skipped without evaluation.  The complex
{empty set} has one-dimensional homology in degree -1.  The table's
memory is estimated against physical memory before it is allocated.

Before ranking boundary matrices, each evaluated complex is shrunk by
elementary collapses (removing free face pairs), which preserves the
homotopy type and hence every homology dimension.  Every evaluation is
audited: the alternating face-count sum of the original complex must
equal the alternating homology sum, and no dimension may be negative.
That audit checks the collapse and non-negativity, not the ranks: the
rank terms cancel in the alternating sum.  The ranks are audited once
per table instead: beta_{1,j} must equal the number of generators of
degree j.

All arithmetic is exact: GF(2) boundary rows are bitmasks ranked by XOR
elimination; GF(p) and Q rows are sparse dicts {lower face index: +-1},
ranked by sparse modular elimination and by sparse fraction-free integer
elimination.  The collapse and the boundary rows walk one list of W's
single-bit masks, built once per evaluated W.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .bitset import submasks, vertices_of
from .ideals import SquareFreeIdeal
from .linalg import rank_gf2, rank_mod_p, rank_rationals

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
    """Remove free face pairs until none remain (homotopy-preserving)."""
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
    for f in alive:
        out[f.bit_count()].append(f)
    return out


def _boundary_rank(upper: list[int], lower: list[int], fld: Field, wbits: list[int]) -> int:
    """Rank of the boundary map from c-faces (upper) to (c-1)-faces (lower).

    GF(2) rows are bitmasks over the lower faces; GF(p) and Q rows are
    sparse dicts {lower index: +-1}, the sign alternating over the face's
    vertices in ascending order.
    """
    if not upper or not lower:
        return 0
    if fld.p == 2:
        index = {f: 1 << i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = 0
            for b in wbits:
                if f & b:
                    row |= index[f ^ b]
            rows.append(row)
        return rank_gf2(rows)
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
    if fld.p is None:
        return rank_rationals(rows)
    return rank_mod_p(rows, fld.p)


def _homology_dims(
    cards: list[list[int]], wmask: int, fld: Field, collapse: bool = True
) -> list[int]:
    """Reduced homology dimensions, indexed from degree -1.

    Audits every evaluation: the alternating sum of the original face
    counts must match the alternating sum of the computed dimensions.
    """
    n_cards = len(cards)
    f_orig = [len(c) for c in cards]
    wbits = [1 << i for i in range(wmask.bit_length()) if wmask >> i & 1]
    work = _collapse(cards, wbits) if collapse else cards
    f = [len(c) for c in work]
    dims = [0] * n_cards
    if any(f):
        ranks = [0] * (n_cards + 1)
        ranks[1] = 1 if (f[0] and len(f) > 1 and f[1]) else 0
        for c in range(2, n_cards):
            ranks[c] = _boundary_rank(work[c], work[c - 1], fld, wbits)
        for c in range(n_cards):
            dims[c] = f[c] - ranks[c] - ranks[c + 1]
    _AUDIT["checks"] += 1
    euler_faces = sum(f_orig[c] if c % 2 else -f_orig[c] for c in range(n_cards))
    euler_homology = sum(dims[c] if c % 2 else -dims[c] for c in range(n_cards))
    if euler_faces != euler_homology or any(d < 0 for d in dims):
        _AUDIT["failures"] += 1
        raise HomologyAuditError(
            f"audit failed: faces {f_orig} gave dimensions {dims} over {fld.label()}"
        )
    return dims


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    n: int
    field: Field
    entries: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    evaluations: int = 0

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


def oracle_cap(override: int | None = None) -> int:
    if override is not None:
        return override
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
    """Refuse a 2^n subset table that does not fit in physical memory."""
    need = (8 + 32) << n  # per entry: the list slot plus one int object
    have = _physical_memory()
    if have is not None and need > have:
        raise ResourceLimitError(
            f"the oracle's 2^{n} subset table needs about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


def betti_table_ideal(
    ideal: SquareFreeIdeal,
    fld: Field = GF2,
    max_vars: int | None = None,
    collapse: bool = True,
) -> BettiTable:
    """Full graded Betti table of R/I via the Hochster sum over subsets."""
    n = ideal.n
    cap = oracle_cap(max_vars)
    if n > cap:
        raise ResourceLimitError(
            f"{n} variables exceed the oracle cap of {cap}; "
            f"raise it explicitly to force the computation"
        )
    table = BettiTable(n, fld, {(0, 0): 1})
    if ideal.is_zero:
        return table
    if any(g == 0 for g in ideal.gens):
        raise ValueError("the unit ideal has no Betti table")

    _check_table_memory(n)
    # covered[a] is the union of the generators inside a: a is a face iff
    # covered[a] == 0, and W restricts to a cone iff covered[W] != W.
    size = 1 << n
    covered = [0] * size
    for g in ideal.gens:
        covered[g] = g
    for b in range(n):
        step = 1 << b
        for a in range(size):
            if a & step:
                covered[a] |= covered[a ^ step]

    entries = table.entries
    for w in range(1, size):
        if covered[w] != w:
            continue  # some vertex of W lies in no generator inside W: a cone
        j = w.bit_count()
        cards: list[list[int]] = [[] for _ in range(j + 1)]
        for s in submasks(w):
            if not covered[s]:
                cards[s.bit_count()].append(s)
        dims = _homology_dims(cards, w, fld, collapse)
        table.evaluations += 1
        for c, d in enumerate(dims):
            if d:
                i = j - c  # homological degree for homology degree c - 1
                if i < 1:
                    raise HomologyAuditError(f"unexpected top homology for W={vertices_of(w)}")
                entries[(i, j)] = entries.get((i, j), 0) + d
    _audit_first_syzygies(ideal, table)
    return table


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
