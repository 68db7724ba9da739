"""Peeling a t-connected ideal at a simplicial vertex, with exact checks.

Fix a simplicial vertex x and list the connected (t-1)-sets containing
it as C_1, ..., C_k.  Each index i carries a set B_i of neighbors w of
C_i that produce a generator C_i + {w} not already claimed by an earlier
index, and a family of ideals, each built once:

    J_i = x_{C_i} * <w : w in B_i>
    K_i = the generators of the t-connected ideal containing no C_1..C_i
    R_i(w) = <N(C_i) - {w}> + <N(w) - N[C_i]> + Q_i(w), with Q_i(w) the
             generators avoiding N[C_i] + N[w] entirely
    L_i = the sum over w in B_i of x_w * R_i(w)

J_i, R_i(w) and L_i come from the graph; the intersection of J_i and K_i
is built once, from the K side: B_i misses C_i, so J_i = <x_{C_i}> ∩ <B_i>
and J_i ∩ K_i = x_{C_i} * ((K_i : x_{C_i}) ∩ <B_i>), one colon and one
intersection with a monomial prime (``SquareFreeIdeal.intersect_variables``),
never L_i.  The paper's L_i is
<lcm(m, m') / x_{C_i} : m in J_i, m' in K_i>; each of those generators
holds its own w in B_i, so that ideal is the sum of x_w * (L_i : x_w),
and it equals the L_i above wherever every colon identity
(L_i : x_w) = R_i(w) holds.  The verify functions only compare:
J_i + K_i with K_{i-1}, the intersection with x_{C_i} * L_i, each
(L_i : x_w) with R_i(w), and, at indices whose closed neighborhood
dominates the whole graph, the intersection with its quadratic closed
form.  Reports list one record per identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from .bitset import bit, iter_bits, mask_of, vertices_of
from .graphs import Graph, connected_subsets, neighborhood_mask, simplicial_vertices
from .ideals import SquareFreeIdeal, t_connected_ideal

# Order of the nine connected 3-sets around x5 used by the worked
# 14-vertex example; injected by the CLI flag --order paper.
FIG1_X5_T4_WORKED_ORDER: tuple[tuple[int, ...], ...] = (
    (3, 4, 5), (3, 5, 6), (4, 5, 6), (2, 4, 5), (1, 4, 5),
    (2, 3, 5), (1, 3, 5), (5, 6, 7), (5, 6, 8),
)


def a_x_list(
    g: Graph, x: int, t: int, order: Sequence[Iterable[int]] | None = None
) -> list[tuple[int, ...]]:
    """Connected (t-1)-subsets containing x, default lexicographic order.

    An explicit ``order`` must be a permutation of the computed family.
    """
    if not 1 <= x <= g.n:
        raise ValueError(f"vertex {x} out of range 1..{g.n}")
    if t < 2:
        raise ValueError("t must be >= 2")
    computed = [c for c in connected_subsets(g, t - 1) if x in c]
    if order is None:
        return computed
    explicit = [tuple(sorted(c)) for c in order]
    if sorted(explicit) != sorted(computed):
        raise ValueError("explicit order is not a permutation of the computed family")
    return explicit


def b_sets(g: Graph, cs: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """The neighbor sets B_i for the ordered C_i, as ``a_x_list`` lists them.

    B_1 is the whole open neighborhood of C_1; for later indices a
    neighbor w survives only if C_i + {w} differs from C_j + {w'} for
    every earlier j and every neighbor w' of C_j.
    """
    seen: set[int] = set()
    out = []
    for c in cs:
        cmask = mask_of(c)
        nmask = neighborhood_mask(g, cmask)
        bs = [w for w in iter_bits(nmask) if cmask | bit(w) not in seen]
        out.append(tuple(bs))
        for w in iter_bits(nmask):
            seen.add(cmask | bit(w))
    return out


@dataclass(frozen=True)
class LedgerEntry:
    c: tuple[int, ...]
    b: tuple[int, ...]
    j_ideal: SquareFreeIdeal
    k_ideal: SquareFreeIdeal
    jk_ideal: SquareFreeIdeal  # the intersection of J_i and K_i
    l_ideal: SquareFreeIdeal
    r_ideals: dict[int, SquareFreeIdeal]  # w in B_i -> R_i(w)


@dataclass(frozen=True)
class DecompositionLedger:
    graph: Graph
    x: int
    t: int
    base_ideal: SquareFreeIdeal  # the full t-connected ideal, = K_0
    entries: tuple[LedgerEntry, ...]

    def k_ideal(self, i: int) -> SquareFreeIdeal:
        """K_i, with K_0 the full ideal."""
        return self.base_ideal if i == 0 else self.entries[i - 1].k_ideal


def ledger(
    g: Graph, x: int, t: int, order: Sequence[Iterable[int]] | None = None
) -> DecompositionLedger:
    """Build every ideal of the peeling at x; x must be simplicial."""
    cs = a_x_list(g, x, t, order)  # checks x's range first
    if x not in simplicial_vertices(g):
        raise ValueError(f"vertex {x} is not simplicial")
    base = t_connected_ideal(g, t)
    bs = b_sets(g, cs)
    entries = []
    k_gens = list(base.gens)
    for c, b in zip(cs, bs):
        cmask = mask_of(c)
        k_gens = [m for m in k_gens if m & cmask != cmask]
        k_ideal = SquareFreeIdeal(g.n, tuple(k_gens))
        # C_i + w for ascending w is already a canonical antichain
        j_ideal = SquareFreeIdeal(g.n, tuple(cmask | bit(w) for w in b))
        open_c = neighborhood_mask(g, cmask)
        closed_c = open_c | cmask
        r_ideals = {}
        for w in b:
            excl = closed_c | neighborhood_mask(g, bit(w), closed=True)
            # singletons on N(C_i) - w and N(w) - N[C_i], then Q_i(w): the parts
            # share no vertex and Q_i(w) holds no singleton, so the union is minimal
            singles = (open_c & ~bit(w)) | (g.adj[w - 1] & ~closed_c)
            r_gens = [bit(v) for v in iter_bits(singles)] + [m for m in base.gens if not m & excl]
            r_ideals[w] = SquareFreeIdeal(g.n, tuple(sorted(r_gens)))
        l_ideal = SquareFreeIdeal.make(
            g.n, [r | bit(w) for w, r_ideal in r_ideals.items() for r in r_ideal.gens]
        )
        # J_i ∩ K_i = <x_C> ∩ <B_i> ∩ K_i = x_C * ((K_i : x_C) ∩ <B_i>), as B_i misses C_i
        jk_ideal = k_ideal.colon(cmask).intersect_variables(mask_of(b)).scale(cmask)
        entries.append(LedgerEntry(c, b, j_ideal, k_ideal, jk_ideal, l_ideal, r_ideals))
    return DecompositionLedger(g, x, t, base, tuple(entries))


@dataclass(frozen=True)
class IdentityRecord:
    lemma: str
    i: int
    w: int | None
    passed: bool
    detail: str
    applicable: bool = True

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "i": self.i,
            "w": self.w,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class DecompositionReport:
    x: int
    t: int
    order: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    records: list[IdentityRecord] = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "t": self.t,
            "order": [list(c) for c in self.order],
            "b_sets": [list(b) for b in self.b],
            "identities": [r.to_json_dict() for r in self.records],
            "all_pass": self.all_passed,
        }


def _mismatch_detail(lhs: SquareFreeIdeal, rhs: SquareFreeIdeal) -> str:
    left = set(lhs.gens)
    right = set(rhs.gens)
    only_l = sorted(vertices_of(m) for m in left - right)[:4]
    only_r = sorted(vertices_of(m) for m in right - left)[:4]
    return f"lhs-only {only_l}, rhs-only {only_r}"


def verify_identities(ledg: DecompositionLedger) -> DecompositionReport:
    """Check the sum, intersection, and colon identities at every index."""
    report = DecompositionReport(
        ledg.x, ledg.t, tuple(e.c for e in ledg.entries), tuple(e.b for e in ledg.entries)
    )
    for idx, entry in enumerate(ledg.entries, start=1):
        prev = ledg.k_ideal(idx - 1)
        if not entry.b:
            ok = entry.k_ideal == prev
            report.records.append(
                IdentityRecord(
                    "3.5(1)", idx, None, ok,
                    "B empty; checked K_i == K_{i-1}" if ok else _mismatch_detail(entry.k_ideal, prev),
                )
            )
            continue
        cmask = mask_of(entry.c)
        lhs = entry.j_ideal.add(entry.k_ideal)
        ok = lhs == prev
        report.records.append(
            IdentityRecord(
                "3.5(1)", idx, None, ok,
                "J_i + K_i == K_{i-1}" if ok else _mismatch_detail(lhs, prev),
            )
        )
        inter = entry.jk_ideal
        scaled = entry.l_ideal.scale(cmask)
        ok = inter == scaled
        report.records.append(
            IdentityRecord(
                "3.5(2a)", idx, None, ok,
                "J_i * K_i intersection == x_C * L_i" if ok else _mismatch_detail(inter, scaled),
            )
        )
        for w in entry.b:
            lhs_w = entry.l_ideal.colon(bit(w))
            rhs_w = entry.r_ideals[w]
            ok = lhs_w == rhs_w
            report.records.append(
                IdentityRecord(
                    "3.5(2b)", idx, w, ok,
                    "(L_i : w) == M_i + N_i + Q_i" if ok else _mismatch_detail(lhs_w, rhs_w),
                )
            )
    return report


def verify_dominating_intersections(ledg: DecompositionLedger) -> DecompositionReport:
    """Closed form for J_i * K_i at indices i where N[C_i] covers V(G).

    There the intersection equals x_{C_i} times the quadratic ideal on
    pairs drawn from B_i and from B_i x (N(C_i) - B_i).  Indices whose
    closed neighborhood misses a vertex are reported not-applicable.
    """
    g = ledg.graph
    report = DecompositionReport(
        ledg.x, ledg.t, tuple(e.c for e in ledg.entries), tuple(e.b for e in ledg.entries)
    )
    full = g.vertex_mask
    for idx, entry in enumerate(ledg.entries, start=1):
        cmask = mask_of(entry.c)
        if neighborhood_mask(g, cmask, closed=True) != full:
            report.records.append(
                IdentityRecord(
                    "case2", idx, None, True,
                    "not applicable: N[C_i] does not cover V(G)", applicable=False,
                )
            )
            continue
        b_list = list(entry.b)
        rest = [w for w in vertices_of(neighborhood_mask(g, cmask)) if w not in entry.b]
        pairs = [bit(a) | bit(c) for i1, a in enumerate(b_list) for c in b_list[i1 + 1:]]
        pairs += [bit(a) | bit(c) for a in b_list for c in rest]
        rhs = SquareFreeIdeal.make(g.n, pairs).scale(cmask) if pairs else SquareFreeIdeal.zero(g.n)
        lhs = entry.jk_ideal
        ok = lhs == rhs
        report.records.append(
            IdentityRecord(
                "case2", idx, None, ok,
                "dominating-index intersection formula" if ok else _mismatch_detail(lhs, rhs),
            )
        )
    return report
