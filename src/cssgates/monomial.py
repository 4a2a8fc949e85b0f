"""Monomial codes on the binary m-cube and their closed-form gate groups.

A square-free monomial in x_1..x_m is a variable subset, packed as an int
mask (bit k-1 represents x_k). Its evaluation vector runs over all 2^m
points, point i having coordinates equal to the binary digits of i with
x_1 the least significant; the last point is the all-ones assignment.
Evaluations multiply componentwise, so products of monomial sets map to
intersections of supports, and weight(ev(u)) = 2^(m - deg u).

For codes spanned by monomial evaluations each gate group is one Howell
form. A reach table gives level(u), the least number of outer factors
that reach u from the inner set (fixing group H) or from the outer set
(identity group I, transversal group T), or ell when ell-1 do not: an
int64 array over the 2^m masks (_reach_levels), one per start set, which
the spec keeps (MonomialCodeSpec._reach). The group spans the heads 2^(ell - level(u)) *
ev(full/u) over the u with level(u) >= 1; T adds 2^(ell - 1) *
ev(full/u) for u in outer-minus-inner. This unrolls the textbook recursion
mod_k = top_k + 2 mod_(k-1), k = 1..ell, where top_k spans ev(full/u) over
the u with level(u) >= k (T_k = I_k + 2 T_(k-1) is top_k + 2 T_(k-1), as
I_(k-1) lies in T_(k-1), so T's extras join at k = 1 only): ev(full/u)
joins at each k <= level(u) and is doubled ell - k times. Multiplying by
2^(ell - k) embeds Z/2^k into Z/2^ell, so a level's Howell form scales to
the span of its scaled rows, annihilator rows included; the Howell form
is unique, so the generators are the recursion's. The rows are echelon,
and _ev_howell writes that form off their scales. Every closed form
checks its hypotheses and raises HypothesisError with a machine-readable
code when they fail. Each validates its reach table, each head against
every constraint at once by one min-plus zeta pass, before the Howell
form reads it; the span-candidate sieve is the complement of the fixing
group's table.

The groups themselves need no hypothesis. Every constraint of a monomial
code is some 2^t * ev(w), so each group's constraint span is diagonal in
the ev basis: the sum of 2^t(v) * ev(v), t(v) the least scale of ev(v) in
the span (ell when there is none). That basis is unimodular, the zeta
matrix [v inside i] being unitriangular over Z, and by Moebius inversion
its dual under the dot product is e*_v = sum over i inside v of
(-1)^(|v| - |i|) e_i. So each group is the sum of 2^(ell - t(v)) * e*_v:
its length is the sum of the t(v), and b lies in it exactly when
2^(ell - t(w)) divides b . ev(w), the sum of b_i over the i containing w,
for every w. _TableGroups reads the three tables off the reach tables
and answers memberships with zeta transforms (Bjorklund, Husfeldt, Kaski
and Koivisto, "Fourier meets Moebius", STOC 2007), which run on residues
mod 2^ell in zmod's residue dtype. The same pass gives a gate's logical
action: the extension vectors are ev(u) for u in outer-minus-inner, and a
product of ev's is ev of the OR of their masks. An int64 zeta or Moebius
pass sums at most 2^m terms of magnitude below 2^ell, so its entries stay
below 2^(m + ell), exact while m + ell <= 62, which _TableGroups checks.
A Z shift y_z moves these answers by the one rule of gates._Groups, Id's
length drop read off one Moebius pass over y_z.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bincode import BitVector, NestedCodePair
from .gates import (
    CssCode,
    PhaseProfile,
    _GROUPS,
    _Groups,
    _check_table_size,
    _span_mismatch,
    _subset_sums,
    _subsets,
    css_from_pair,
)
from .zmod import MAX_LEVEL, ZModule, _check_level, _residue_dtype, howell_form

__all__ = [
    "HypothesisError",
    "Monomial",
    "MonomialSet",
    "MonomialCodeSpec",
    "GeneralClosedForm",
    "MonomialActionResult",
    "evaluate",
    "product_set",
    "monomial_power",
    "divisibility_closure",
    "is_decreasing",
    "validate_fixing_hypotheses",
    "validate_transversal_identity_hypotheses",
    "closed_form_fixing_group",
    "closed_form_transversal_identity",
    "closed_form_fixing_group_general",
    "decreasing_span_monomials",
    "monomial_action",
    "reed_muller_set",
    "reed_muller_degrees",
    "reed_muller_fixing_monomials",
    "reed_muller_identity_monomials",
]


class HypothesisError(ValueError):
    """A closed form was asked for outside its applicability conditions.

    The code attribute is a stable machine-readable tag; level carries the
    level at which the condition failed, where meaningful.
    """

    def __init__(self, code: str, message: str, *, level: int | None = None):
        super().__init__(message)
        self.code = code
        self.level = level


_TOKEN_RE = re.compile(r"x([1-9][0-9]*)")


@dataclass(frozen=True, order=True)
class Monomial:
    """Square-free monomial as a variable mask; mask 0 is the constant 1."""

    m: int
    mask: int

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("number of variables must be positive")
        if not 0 <= self.mask < 1 << self.m:
            raise ValueError("variable mask out of range")

    @classmethod
    def parse(cls, m: int, token: str) -> "Monomial":
        if token == "1":
            return cls(m, 0)
        indices = [int(s) for s in _TOKEN_RE.findall(token)]
        if not indices or "".join(f"x{i}" for i in indices) != token:
            raise ValueError(f"not a monomial token: {token!r}")
        mask = 0
        prev = 0
        for i in indices:
            if i <= prev:
                raise ValueError(f"variable indices must strictly increase: {token!r}")
            if i > m:
                raise ValueError(f"variable x{i} exceeds {m} variables")
            mask |= 1 << (i - 1)
            prev = i
        return cls(m, mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def token(self) -> str:
        if self.mask == 0:
            return "1"
        return "".join(f"x{i + 1}" for i in range(self.m) if self.mask >> i & 1)

    def divides(self, other: "Monomial") -> bool:
        if self.m != other.m:
            raise ValueError("variable counts differ")
        return self.mask & other.mask == self.mask

    def __mul__(self, other: "Monomial") -> "Monomial":
        """Square-free product: union of the variable sets."""
        if self.m != other.m:
            raise ValueError("variable counts differ")
        return Monomial(self.m, self.mask | other.mask)

    def __str__(self) -> str:
        return self.token


@dataclass(frozen=True)
class MonomialSet:
    """Finite set of square-free monomials over a fixed variable count."""

    m: int
    masks: frozenset[int]

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("number of variables must be positive")
        top = 1 << self.m
        if any(not 0 <= u < top for u in self.masks):
            raise ValueError("variable mask out of range")

    @classmethod
    def from_tokens(cls, m: int, tokens) -> "MonomialSet":
        return cls(m, frozenset(Monomial.parse(m, t).mask for t in tokens))

    @classmethod
    def from_masks(cls, m: int, masks) -> "MonomialSet":
        return cls(m, frozenset(int(u) for u in masks))

    def monomials(self) -> tuple[Monomial, ...]:
        """Members sorted by (degree, mask), the canonical listing order."""
        order = sorted(self.masks, key=lambda u: (u.bit_count(), u))
        return tuple(Monomial(self.m, u) for u in order)

    def tokens(self) -> list[str]:
        return [mono.token for mono in self.monomials()]

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, item) -> bool:
        if isinstance(item, Monomial):
            return item.m == self.m and item.mask in self.masks
        return int(item) in self.masks

    def union(self, other: "MonomialSet") -> "MonomialSet":
        if self.m != other.m:
            raise ValueError("variable counts differ")
        return MonomialSet(self.m, self.masks | other.masks)

    def difference(self, other: "MonomialSet") -> "MonomialSet":
        if self.m != other.m:
            raise ValueError("variable counts differ")
        return MonomialSet(self.m, self.masks - other.masks)

    def issubset(self, other: "MonomialSet") -> bool:
        return self.m == other.m and self.masks <= other.masks


@lru_cache(maxsize=None)
def _evaluate_bits(m: int, mask: int) -> int:
    comp = ~mask & ((1 << m) - 1)
    bits = 0
    sub = comp
    while True:
        bits |= 1 << (mask | sub)
        if sub == 0:
            break
        sub = (sub - 1) & comp
    return bits


def evaluate(m: int, u) -> BitVector:
    """Evaluation vector of a monomial over all 2^m points.

    Coordinate i+1 is u at the point whose binary digits are i (x_1 least
    significant), so the support is the set of mask-supersets of u.
    """
    mask = u.mask if isinstance(u, Monomial) else int(u)
    if not 0 <= mask < 1 << m:
        raise ValueError("variable mask out of range")
    return BitVector(1 << m, _evaluate_bits(m, mask))


_REACH_BLOCK = 1 << 16


def _reach_levels(n: int, start, factors, horizon: int) -> np.ndarray:
    """The least number of factors that, ORed onto one start mask, give
    u, for every mask u < n = 2^m and up to horizon factors; horizon + 1
    where none do. Breadth-first: a level ORs the masks first reached one
    level down with every factor, in blocks of at most _REACH_BLOCK
    entries, and the first level that adds nothing ends the search, as
    later ones only recombine reached masks. ORs of masks below 2^m stay
    below it, so the int64 indices are exact. A spec keeps its two (_reach)."""
    level = np.full(n, horizon + 1, dtype=np.int64)
    frontier = np.fromiter(start, dtype=np.int64)
    level[frontier] = 0
    factors = np.fromiter(factors, dtype=np.int64)
    for k in range(1, horizon + 1):
        reached = np.zeros(n, dtype=bool)
        for f in range(0, factors.size, _REACH_BLOCK):
            cols = factors[f : f + _REACH_BLOCK]
            rows = _REACH_BLOCK // cols.size
            for i in range(0, frontier.size, rows):
                reached[frontier[i : i + rows, None] | cols] = True
        (frontier,) = (reached & (level > k)).nonzero()
        if not frontier.size:
            break
        level[frontier] = k
    return level


def product_set(inner: MonomialSet, outer: MonomialSet, s: int) -> MonomialSet:
    """Square-free products of one inner monomial and up to s outer ones.

    s = 0 returns the inner set itself.
    """
    if inner.m != outer.m:
        raise ValueError("variable counts differ")
    if s < 0:
        raise ValueError("s must be nonnegative")
    level = _reach_levels(1 << inner.m, inner.masks, outer.masks, s)
    return MonomialSet.from_masks(inner.m, np.flatnonzero(level <= s))


def monomial_power(mset: MonomialSet, t: int) -> MonomialSet:
    """Products of between 1 and t members; t = 0 gives {1}, t < 0 nothing.

    Once two consecutive powers agree the chain is stalled for good, since
    further products only combine already-reachable masks.
    """
    if t < 0:
        return MonomialSet(mset.m, frozenset())
    if t == 0:
        return MonomialSet(mset.m, frozenset({0}))
    return product_set(mset, mset, t - 1)


def divisibility_closure(mset: MonomialSet) -> MonomialSet:
    closed: set[int] = set()
    for u in mset.masks:
        sub = u
        while True:
            closed.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & u
    return MonomialSet(mset.m, frozenset(closed))


def is_decreasing(mset: MonomialSet) -> bool:
    """True when the set contains every divisor of each member."""
    return bool(mset.masks) and divisibility_closure(mset) == mset


@dataclass(frozen=True)
class MonomialCodeSpec:
    """Nested monomial generating sets for a CSS code of length 2^m, owning their reach tables."""

    m: int
    outer: MonomialSet
    inner: MonomialSet
    _reach_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.outer.m != self.m or self.inner.m != self.m:
            raise ValueError("variable counts differ")
        if not self.outer.masks:
            raise ValueError("outer set must be nonempty")
        if not self.inner.masks:
            raise ValueError("inner set must be nonempty")
        if not self.inner.issubset(self.outer):
            raise ValueError("inner monomials must be contained in the outer set")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def encoding(self) -> tuple[Monomial, ...]:
        """Logical encoding order: outer-minus-inner by (degree, mask)."""
        return self.outer.difference(self.inner).monomials()

    def induced_pair(self) -> NestedCodePair:
        """The pair of evaluation vectors: ev(u) leads at column u, so
        distinct monomials give echelon rows and no elimination."""
        beta2 = tuple(evaluate(self.m, u) for u in self.inner.monomials())
        ext = tuple(evaluate(self.m, u) for u in self.encoding())
        return NestedCodePair(self.n, beta2, ext)

    def induced_css(self) -> CssCode:
        return css_from_pair(self.induced_pair())

    def _reach(self, start: str, horizon: int) -> np.ndarray:
        """The reach table from the "inner" or "outer" set by up to horizon
        outer factors (_reach_levels), a fresh array cut from the one kept
        for the spec's life at the largest horizon read; a deeper read rebuilds."""
        tables = self._reach_tables
        if start not in tables or tables[start][0] < horizon:
            masks = getattr(self, start).masks
            tables[start] = horizon, _reach_levels(self.n, masks, self.outer.masks, horizon)
        return np.minimum(tables[start][1], horizon + 1)


def _ev_rows(m: int, masks) -> np.ndarray:
    """Lifted ev(w), one row per mask w: point i is in the support of
    ev(w) exactly when its binary digits contain w."""
    w = np.fromiter(masks, dtype=np.int64)[:, None]
    return ((np.arange(1 << m) & w) == w).astype(np.int64)


def _degrees(m: int) -> np.ndarray:
    """|u| for every mask u < 2^m."""
    degree = np.zeros(1 << m, dtype=np.int64)
    for k in range(m):
        degree[1 << k : 2 << k] = degree[: 1 << k] + 1
    return degree


@lru_cache(maxsize=2)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The 3^m pairs w inside v as arrays w, v and free = |v| - |w|, and
    the positions of each layer free = 1..m; shared, so read-only. About
    32 * 3^m bytes, so only the last two m are kept."""
    # ternary digit i of a pair's index (digit 0 the most significant) is
    # 0 when x_(i+1) is outside v, 1 when it is in v but not in w, and 2
    # when it is in w; free counts the 1 digits
    w = v = free = np.zeros(1, dtype=np.int64)
    for i in range(m):
        w = np.add.outer(w, [0, 0, 1 << i]).ravel()
        v = np.add.outer(v, [0, 1 << i, 1 << i]).ravel()
        free = np.add.outer(free, [0, 1, 0]).ravel()
    layers = tuple(np.flatnonzero(free == k) for k in range(1, m + 1))
    for a in (w, v, free, *layers):
        a.flags.writeable = False
    return w, v, free, layers


def _ev_howell(m: int, ell: int, s: np.ndarray) -> ZModule:
    """The Howell form of the rows 2^s(w) * ev(w) over the masks w < 2^m
    with s(w) < ell, written straight from the scale table s.

    ev(w) leads at column w with entry 1 (no mask below w contains it),
    so the rows, taken by w, are echelon with pivots 2^s(w), and their
    annihilator rows 2^ell * ev(w) vanish. A span element sum a_w * ev(w)
    leads at the least w with a_w != 0, so the rows have the Howell
    property already; only the entries above the pivots are left to
    reduce. The Howell row of w is sum y_v * ev(v) over the v containing
    w, where y_w = 2^s(w) and each other y_v is a multiple of 2^s(v)
    (s(v) = ell means no row and y_v = 0). Its entry at v is
    sigma_v + y_v with sigma_v the sum of y_x over the x strictly inside
    v, so the reduced entry is b_v = sigma_v mod 2^s(v) and
    y_v = b_v - sigma_v. This fixes y one layer of the cube of v
    containing w at a time, by |v| - |w|, each layer's sigma one zeta
    pass over the layers below, and a last zeta pass gives the entries.
    The cubes of all heads share one array, an entry per pair w inside v,
    3^m in all, so a call makes m + 1 zeta passes of m vectorised steps
    each, and no elimination.

    The arithmetic is exact mod 2^ell: entries are held in the narrowest
    unsigned dtype of width d >= ell (zmod._residue_dtype), where sums and
    negations wrap mod 2^d, and reduction mod 2^ell is a ring map from
    Z/2^d. Each layer sets y_v to minus sigma_v masked to its bits s(v)
    to ell - 1, which is b_v - sigma_v mod 2^ell, and the entries are
    masked mod 2^ell after the last pass, into generators of that dtype.
    """
    dt = _residue_dtype(ell)
    mask = dt((1 << ell) - 1)
    w, v, free, layers = _pair_index(m)

    def sums(a: np.ndarray) -> np.ndarray:
        """A new array whose entry (w, v) sums a over the pairs (w, x) with
        x inside v: one step per digit adds its 0 entries into its 1
        entries. The last digits, then the first, are brought to the front
        by a transposed copy, so every step runs over long blocks."""
        for lead in (m - m // 2, m // 2):
            a = a.reshape(-1, 3**lead).T.copy()
            cube = a.reshape((3,) * lead + (-1,))
            for i in range(lead):
                cube[(slice(None),) * i + (1,)] += cube[(slice(None),) * i + (0,)]
        return a.ravel()

    high = mask ^ ((1 << s[v]) - 1).astype(dt)
    y = ((free == 0) << s[w]).astype(dt)
    for on in layers:
        # y_v = b_v - sigma_v mod 2^ell, b_v the low s(v) bits of sigma_v
        y[on] = -(sums(y)[on] & high[on])
    heads = s < ell
    rank = np.cumsum(heads) - 1
    gens = np.zeros((int(heads.sum()), 1 << m), dtype=dt)
    keep = heads[w]
    gens[rank[w[keep]], v[keep]] = (sums(y) & mask)[keep]
    cols = np.flatnonzero(heads)
    return ZModule(1 << m, ell, gens, tuple(zip(cols.tolist(), s[cols].tolist())))


def _complement_form(spec: MonomialCodeSpec, ell: int, level: np.ndarray, extras=()) -> ZModule:
    """The closed form read off one reach table of horizon ell - 1,
    unchecked: the Howell form, written off its scale table by _ev_howell,
    of 2^(ell - level(u)) * ev(full/u) over every u with level(u) >= 1,
    the masks in extras (T's outer-minus-inner, level 0) counting as 1.
    """
    # the head of u is 2^s(w) * ev(w) for w = full/u = n - 1 - u
    s = ell - level[::-1]
    s[[spec.full_mask ^ u for u in extras]] = ell - 1
    return _ev_howell(spec.m, ell, s)


def _mask_token(m: int, mask: int) -> str:
    return Monomial(m, mask).token


def _head_pairing_check(spec: MonomialCodeSpec, ell: int, t: np.ndarray, code: str) -> None:
    """Verify that every head generator annihilates every constraint row.

    t is a reach table of horizon ell - 1: constraint w is first reached
    at t(w) factors, giving 2^t(w) * ev(w); t = ell off the table. The head
    2^(ell - t(u)) * ev(full/u) pairs to 2^(ell - t(u) + t(w) + |u minus w|),
    which fails to vanish mod 2^ell exactly when |u minus w| + t(w) < t(u),
    never for t(w) = ell >= t(u). So u fails when R(u), the least
    |u minus w| + t(w), is below t(u). With y = u and w, R(u) is the least
    |u minus y| + T(y) over y inside u, T(y) the least t(w) over w containing
    y: a superset-min and a +1-per-variable subset pass, one step per
    variable for both (a min-plus zeta transform, Bjorklund et al., STOC
    2007), and no pairs. The error names the first failing pair, u then w
    in (degree, mask) order, at the least recursion level t(w) +
    |u minus w| + 1 where the unscaled ev(full/u) leaves the kernel.
    """
    reach = t.copy()
    for k in range(spec.m):
        low, high = reach.reshape(1 << (spec.m - 1 - k), 2, -1).transpose(1, 0, 2)
        np.minimum(high, low + 1, out=high)
        np.minimum(low, high, out=low)
    bad = np.flatnonzero(reach < t)
    if bad.size:
        degree = _degrees(spec.m)
        u = int(bad[np.argmin(degree[bad])])
        gap = degree[u & ~np.arange(spec.n)]
        fails = np.flatnonzero(gap + t < t[u])
        w = int(fails[np.argmin(degree[fails])])
        scale, gap = int(t[w]), int(gap[w])
        raise HypothesisError(
            code,
            f"ev({_mask_token(spec.m, spec.full_mask ^ u)}) joins the head at "
            f"level {scale + gap + 1} but its pairing against the scale-{scale} "
            f"constraint from {_mask_token(spec.m, w)} is only divisible by "
            f"2^{scale + gap}",
            level=scale + gap + 1,
        )


def _relative_generator_check(spec: MonomialCodeSpec, ell: int) -> None:
    """The extra generators 2^(ell - 1) * ev(full/u) of the transversal
    form, u in outer-minus-inner, must clear the unscaled inner
    constraints ev(w), which fails when u divides w, and for levels above
    one each u must have a second outer divisor so the generic group
    cannot hold ev(full/u) at a lower scale than 2^(ell - 1). One zeta pass
    counts each u's inner multiples (the inner set at its complements) and
    outer divisors; the error names the first failing u, then w, in
    (degree, mask) order."""
    counts = np.zeros((spec.n, 2), dtype=np.int64)
    counts[[spec.full_mask ^ w for w in spec.inner.masks], 0] = 1
    counts[list(spec.outer.masks), 1] = 1
    _subset_sums(counts, spec.m)
    relative = np.fromiter(spec.outer.masks - spec.inner.masks, dtype=np.int64)
    excluded = counts[spec.full_mask ^ relative, 0] > 0
    bad = relative[excluded | (ell >= 2) & (counts[relative, 1] < 2)].tolist()
    if not bad:
        return
    u = min(bad, key=lambda x: (x.bit_count(), x))
    if counts[spec.full_mask ^ u, 0]:
        w = min((x for x in spec.inner.masks if x & u == u), key=lambda x: (x.bit_count(), x))
        raise HypothesisError(
            "relative_generator_excluded",
            f"ev({_mask_token(spec.m, spec.full_mask ^ u)}) pairs oddly "
            f"with the inner constraint from {_mask_token(spec.m, w)}",
            level=1,
        )
    raise HypothesisError(
        "relative_generator_isolated",
        f"{_mask_token(spec.m, u)} has no second outer divisor, so its generator "
        "sits deeper in the level loop than in the generic group",
        level=2,
    )


def _chain_stalls(outer_levels: np.ndarray, t: int) -> bool:
    """Whether the outer power P(t) equals P(t-1), P(0) = {1}, for t >= 1,
    read off an outer reach table (from the outer set) of horizon at least
    t - 1.

    P(t) is the masks the table reaches by level t - 1, so for t >= 2 it
    grows exactly when some mask is first reached at t - 1; 1 (mask 0) is
    a product of outer monomials only when it is one, at level 0. For
    t = 1, P(1) is the outer set, which is {1} exactly when it has no
    nonzero mask.
    """
    return not (outer_levels[1:] == t - 1).any()


def _power_chain_stalled(t: int, ell: int) -> HypothesisError:
    message = f"outer power chain is stationary at exponent {t}"
    return HypothesisError("power_chain_stalled", message, level=ell)


def _fixing_reach(spec: MonomialCodeSpec, ell: int) -> np.ndarray:
    """The inner reach table up to ell-1 outer factors, once the full
    monomial is outside it and the outer power chain grows at ell-1 (T's
    and Id's outer table)."""
    first = spec._reach("inner", ell - 1)
    if first[spec.full_mask] < ell:
        raise HypothesisError(
            "full_product_reached",
            f"the full monomial is a product of inner times {ell - 1} outer monomials",
            level=ell,
        )
    if ell >= 2 and _chain_stalls(spec._reach("outer", ell - 1), ell - 1):
        raise _power_chain_stalled(ell - 1, ell)
    return first


def _fixing_table(spec: MonomialCodeSpec, ell: int) -> np.ndarray:
    """The fixing group's reach table, once every hypothesis holds."""
    _check_level(ell)
    first = _fixing_reach(spec, ell)
    _head_pairing_check(spec, ell, first, "head_outside_kernel")
    return first


def validate_fixing_hypotheses(spec: MonomialCodeSpec, ell: int) -> None:
    """Raise HypothesisError unless the fixing-group closed form applies.

    Conditions: the full monomial is not reachable as a product of one
    inner and up to ell-1 outer monomials, the outer power chain has not
    stalled (both propagate to every lower level of the loop), and every
    head generator actually lies in the kernel it describes, which the
    two reachability conditions alone do not guarantee.
    """
    _fixing_table(spec, ell)


def closed_form_fixing_group(spec: MonomialCodeSpec, ell: int) -> ZModule:
    """Closed-form fixing group of a monomial code.

    The Howell form of the heads 2^(ell - level(u)) * ev(full/u), level
    read off the inner reach table (_ev_howell). Applicability is what
    validate_fixing_hypotheses enforces; when it holds the result equals
    the kernel computation.
    """
    return _complement_form(spec, ell, _fixing_table(spec, ell))


def _transversal_identity_table(spec: MonomialCodeSpec, ell: int) -> np.ndarray:
    """The outer reach table of T and Id, once every hypothesis holds."""
    _check_level(ell)
    full = spec.full_mask
    if full in spec.inner.masks:
        raise HypothesisError(
            "full_in_inner", "the full monomial generates the inner code", level=ell
        )
    first = spec._reach("outer", ell - 1)
    if first[full] < ell and full not in spec.outer.masks:
        raise HypothesisError(
            "full_power_reached",
            f"the full monomial is a product of at most {ell} outer monomials "
            "without generating the outer code",
            level=ell,
        )
    if _chain_stalls(first, ell):
        raise _power_chain_stalled(ell, ell)
    _head_pairing_check(spec, ell, first, "identity_head_outside_kernel")
    _relative_generator_check(spec, ell)
    return first


def validate_transversal_identity_hypotheses(spec: MonomialCodeSpec, ell: int) -> None:
    """Raise HypothesisError unless the transversal/identity closed forms
    apply.

    Conditions: the full monomial lies neither in the inner set nor in
    the outer power minus the outer set, the power chain has not stalled
    at the top level, every head generator clears every kernel
    constraint, and the extra transversal generators clear the inner
    constraints while owning a second outer divisor.
    """
    _transversal_identity_table(spec, ell)


def closed_form_transversal_identity(
    spec: MonomialCodeSpec, ell: int
) -> tuple[ZModule, ZModule]:
    """Closed-form (transversal, identity) groups of a monomial code.

    The Howell form (_ev_howell) each of the heads 2^(ell - level(u)) *
    ev(full/u), level read off the outer reach table, T also taking
    2^(ell - 1) * ev(full/u) for u in outer-minus-inner. Applicability is what
    validate_transversal_identity_hypotheses enforces; when it holds both
    results equal the kernel computations.
    """
    first = _transversal_identity_table(spec, ell)
    transversal = _complement_form(spec, ell, first, spec.outer.masks - spec.inner.masks)
    return transversal, _complement_form(spec, ell, first)


@dataclass(frozen=True)
class GeneralClosedForm:
    """Minimal level at which the full monomial is reachable, with the
    generating system the displayed general formula produces there."""

    ell: int
    module: ZModule


def closed_form_fixing_group_general(spec: MonomialCodeSpec) -> GeneralClosedForm:
    """General-position fixing group formula at the minimal reachable level.

    Finds the least level whose product set contains the full monomial,
    then takes one Howell form of (ev(u) - ev(1)) over the u that are not
    complement quotients of reachable monomials and of twice the
    generators of the fixing group one level down, read off its exponent
    table (_TableGroups); the Howell form is unique, so the tail needs no
    form of its own.
    Raises when the full monomial is never reached or when the product
    set saturates (for divisibility-closed specs reaching the full
    monomial always saturates the set, so the formula only ever applies
    to non-closed sets).

    The generating system is emitted exactly as displayed; reports compare
    it against the fixing group (read off _TableGroups at the same level),
    and the two are not guaranteed to agree (the comparison, with a
    witness on failure, is the point).
    """
    level = spec._reach("inner", MAX_LEVEL)
    if level[spec.full_mask] > MAX_LEVEL:
        # the first level whose product set equals the one below, or MAX_LEVEL + 1
        raise HypothesisError(
            "full_unreachable",
            "products of inner and outer monomials never reach the full monomial",
            level=min(int(level[level <= MAX_LEVEL].max()) + 2, MAX_LEVEL + 1),
        )
    ell = int(level[spec.full_mask]) + 1
    if (level < ell).all():
        raise HypothesisError(
            "product_set_saturated",
            "every monomial is reachable at the minimal full level",
            level=ell,
        )
    # u is a complement quotient when full/u is reached below ell; u = 0,
    # whose row ev(1) - ev(1) is zero, always is
    rows = (_ev_rows(spec.m, np.flatnonzero(level[::-1] >= ell)) - 1) % (1 << ell)
    if ell > 1:
        rows = np.vstack([rows, _TableGroups(spec, ell - 1)._generators("H") << 1])
    return GeneralClosedForm(ell, howell_form(rows, ell, n=spec.n))


def decreasing_span_monomials(spec: MonomialCodeSpec, ell: int) -> MonomialSet:
    """Monomial supports spanning the top layer of the fixing group.

    For divisibility-closed specs the fixing group's reach table is the
    down-closure of its maximal products, so the sieve of the u with no
    complement-quotient of such a product dividing them keeps exactly the
    u with full/u outside the table. Their evaluations span exactly the
    unscaled layer of the closed form: inside the fixing group, but
    generally missing the doubled tail.
    """
    _check_level(ell)
    if not (is_decreasing(spec.outer) and is_decreasing(spec.inner)):
        raise HypothesisError(
            "not_decreasing",
            "the sieve form needs divisibility-closed monomial sets",
            level=ell,
        )
    return MonomialSet.from_masks(spec.m, np.flatnonzero(_fixing_reach(spec, ell)[::-1] >= ell))


def _dual_rows(m: int, masks: np.ndarray) -> np.ndarray:
    """The rows e*_v = sum over i inside v of (-1)^(|v| - |i|) e_i, one
    per mask v: by Moebius inversion e*_v . ev(w) is 1 when v = w and 0
    otherwise, so {e*_v} is the basis dual to {ev(w)}."""
    i = np.arange(1 << m)
    v = masks[:, None]
    degree = _degrees(m)
    return np.where(i & v == i, 1 - 2 * ((degree[v] - degree) & 1), 0)


def _check_table(group: str, ell: int, direct: np.ndarray, refined: np.ndarray) -> None:
    # both spans are diagonal in the ev basis, so they are equal exactly
    # when their tables are; a span's length is the sum of ell - t(v)
    if not np.array_equal(direct, refined):
        raise _span_mismatch(group, int((ell - direct).sum()), int((ell - refined).sum()))


class _TableGroups(_Groups):
    """H, T and Id of a monomial code, read off one exponent table each.

    Table t_g holds, for every mask v, the least scale t with 2^t * ev(v)
    in the constraint span of g, ell when there is none (see the module
    docstring). t_H is the inner reach table and t_Id the outer one, each
    up to ell - 1 factors. Built for the unshifted code, with T's and
    Id's tables cross-checked against their direct systems; a Z shift
    moves it by the rule of gates._Groups. A module is one Howell form, a
    length or a membership none.
    """

    def __init__(self, spec: MonomialCodeSpec, ell: int):
        _check_level(ell)
        if spec.m + ell > 62:
            raise ValueError("exponent tables are exact in int64 only for m + ell <= 62")
        self.spec, self.n, self.m, self.ell = spec, spec.n, spec.m, ell
        self.num_logical = len(spec.outer) - len(spec.inner)
        fixing = spec._reach("inner", ell - 1)
        identity = spec._reach("outer", ell - 1)
        outer = np.zeros(spec.n, dtype=bool)
        outer[list(spec.outer.masks)] = True
        inner = np.zeros(spec.n, dtype=bool)
        inner[list(spec.inner.masks)] = True
        # T's rows beyond H: the products of r >= 2 distinct outer monomials
        # at scale 2^(r - 1), which is the identity table off the outer set;
        # an outer monomial is such a product (at scale 2) exactly when it
        # has a proper outer divisor
        divisors = _subset_sums(outer.astype(np.int64), spec.m)
        extras = np.where(outer, np.where(divisors > 1, 1, ell), identity)
        transversal = np.minimum(fixing, extras)
        if len(spec.outer) > len(spec.inner):
            _check_table("transversal", ell, np.where(inner, 0, extras), transversal)
        _check_table("identity", ell, identity, np.where(outer & ~inner, 0, transversal))
        self.tables = dict(zip(_GROUPS, (fixing, transversal, identity)))

    def _generators(self, name: str) -> np.ndarray:
        """The rows 2^(ell - t(v)) * e*_v over the v with t(v) >= 1."""
        t = self.tables[name]
        heads = np.flatnonzero(t)
        return _dual_rows(self.m, heads) << (self.ell - t[heads, None])

    def _restriction(self, name: str):
        """The span of _generators, moved to the code by _flip; no row
        constrains it."""
        rows = self._generators(name)
        return self._flip(rows), rows[:0]

    def _length(self, name: str) -> int:
        return int(self.tables[name].sum())

    def _contains(self, name: str, b) -> bool:
        return bool(self.members(name, [b])[0])

    def members(self, name: str, rows) -> np.ndarray:
        """Whether each row b lies in the unshifted pair's group: whether
        2^(ell - t(w)) divides b . ev(w) for every w (_dots, _divides)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError("vector length mismatch")
        return self._divides(name, self._dots(rows))

    def _dots(self, rows: np.ndarray) -> np.ndarray:
        """The residues b . ev(w) mod 2^ell, the sum of b_i over the i
        containing w, for every mask w (axis 0) and row b (axis 1): one
        zeta pass over the reversed columns, as the complement of u is
        n - 1 - u, in the residue dtype (exact by _subset_sums)."""
        cols = rows.T[::-1].astype(_residue_dtype(self.ell), order="C")
        return _subset_sums(cols, self.m)[::-1]

    def _divides(self, name: str, dots: np.ndarray) -> np.ndarray:
        """Per column, whether 2^(ell - t(w)) divides dots[w] for every w."""
        return ~(dots & ((1 << (self.ell - self.tables[name][:, None])) - 1)).any(axis=0)

    def _action(self, moved: np.ndarray):
        """One zeta pass gives the memberships and every a_J: the extension
        vectors are ev(u_j), u_j the encoding masks, and a product of ev's
        is ev of the OR of their masks, so a_J = (-2)^(|J| - 1) *
        dots[OR of the u_j over J] mod 2^ell."""
        dots = self._dots(moved[None])
        members = {name: bool(self._divides(name, dots)[0]) for name in _GROUPS}
        return members, self._coefficients(dots[:, 0])

    def _coefficients(self, dots: np.ndarray):
        """The blocks (J, a_J) of the nonzero a_J, read off dots."""
        N = 1 << self.ell
        for index, ors in self._products:
            coeffs = dots[ors].astype(np.int64) * pow(-2, index.shape[1] - 1, N) % N
            keep = np.flatnonzero(coeffs)
            yield index[keep], coeffs[keep]

    @cached_property
    def _products(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(J rows, the OR of the encoding masks over each J), per level."""
        masks = np.array([u.mask for u in self.spec.encoding()], dtype=np.int64)
        return [(index, np.bitwise_or.reduce(masks[index], axis=1))
                for index in _subsets(self.num_logical, self.ell)]

    def _id_drop(self) -> int:
        """ell - s, s the least valuation of the images 2^(ell - t(v)) *
        (e*_v . y_z) of Id's generators under b -> b . y_z, capped at ell."""
        N, t = 1 << self.ell, self.tables["Id"]
        dots = _subset_sums(self.y_z.to_array(), self.m, -1) % N
        images = int(np.bitwise_or.reduce((dots << (self.ell - t)) % N))
        return self.ell - ((images & -images).bit_length() - 1) if images else 0


@dataclass(frozen=True)
class MonomialActionResult:
    """Formula coefficients and membership flags for one monomial gate."""

    monomial: Monomial
    ell: int
    coefficients: np.ndarray
    in_fixing_group: bool
    in_transversal_group: bool
    profile: PhaseProfile


def monomial_action(spec: MonomialCodeSpec, ell: int, u) -> MonomialActionResult:
    """Transversal coefficients 2^(m - deg(u * u_i)) of a monomial gate.

    The coefficient formula is evaluated unconditionally; whether ev(u)
    actually lies in the transversal (or even the fixing) group is
    reported through the flags rather than raised, since the interesting
    cases are exactly the near-misses; flags and profile are one table pass.
    """
    _check_level(ell)
    mono = Monomial.parse(spec.m, u) if isinstance(u, str) else u
    if mono.m != spec.m:
        raise ValueError("variable counts differ")
    coeffs = np.array(
        [pow(2, spec.m - (mono.mask | e.mask).bit_count(), 1 << ell) for e in spec.encoding()],
        dtype=np.int64,
    )
    _check_table_size(len(spec.outer) - len(spec.inner))
    members, phase, decomp = _TableGroups(spec, ell).action(evaluate(spec.m, mono.mask).to_array())
    return MonomialActionResult(
        monomial=mono,
        ell=ell,
        coefficients=coeffs,
        in_fixing_group=members["H"],
        in_transversal_group=members["T"],
        profile=PhaseProfile(ell, decomp.num_logical, decomp.phase_table().astype(np.int64),
                             phase, members["H"]),
    )


def reed_muller_set(m: int, r: int) -> MonomialSet:
    """All monomials of degree at most r (empty for negative r)."""
    if r < 0:
        return MonomialSet(m, frozenset())
    return MonomialSet(m, frozenset(u for u in range(1 << m) if u.bit_count() <= r))


def reed_muller_degrees(spec: MonomialCodeSpec) -> tuple[int, int] | None:
    """(q, r) when the monomial sets are nested full degree-bounded families."""
    q = max(u.bit_count() for u in spec.inner.masks)
    r = max(u.bit_count() for u in spec.outer.masks)
    if spec.inner == reed_muller_set(spec.m, q) and spec.outer == reed_muller_set(spec.m, r):
        return q, r
    return None


def reed_muller_fixing_monomials(m: int, q: int, r: int, ell: int) -> MonomialSet:
    """Monomial supports generating the top of the fixing group of a
    degree-q inside degree-r pair; needs q + (ell-1) r <= m - 1."""
    _check_level(ell)
    if not 0 <= q <= r:
        raise ValueError("need 0 <= q <= r")
    if q + (ell - 1) * r > m - 1:
        raise HypothesisError(
            "degree_bound",
            f"q + (ell-1) r = {q + (ell - 1) * r} exceeds m - 1 = {m - 1}",
            level=ell,
        )
    return reed_muller_set(m, m - q - (ell - 1) * r - 1)


def reed_muller_identity_monomials(m: int, r: int, ell: int) -> MonomialSet:
    """Monomial supports inside the identity group of a degree-r code;
    needs ell * r <= m - 1."""
    _check_level(ell)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if ell * r > m - 1:
        raise HypothesisError(
            "degree_bound",
            f"ell * r = {ell * r} exceeds m - 1 = {m - 1}",
            level=ell,
        )
    return reed_muller_set(m, m - ell * r - 1)
