"""Monomial codes on the binary m-cube and their closed-form gate groups.

A square-free monomial in x_1..x_m is a variable subset, packed as an int
mask (bit k-1 represents x_k). Its evaluation vector runs over all 2^m
points, point i having coordinates equal to the binary digits of i with
x_1 the least significant; the last point is the all-ones assignment.
Evaluations multiply componentwise, so products of monomial sets map to
intersections of supports, and weight(ev(u)) = 2^(m - deg u).

For codes spanned by monomial evaluations the three gate groups have
closed forms, built by one bottom-up level loop over k = 1..ell. Level k
has a head top_k, spanned by the complement quotients ev(full/u) of the u
outside an avoid set, and each group is mod_k = top_k + 2 mod_(k-1). The
avoid sets are thresholds on one breadth-first reach table: u is a
product of one inner and at most k-1 outer monomials for the fixing
group H, and of at most k outer monomials for the identity group I and
the transversal group T. T adds ev(full/u) for u in outer-minus-inner at
k = 1 only; the textbook recursion T_k = I_k + 2 T_(k-1) equals
top_k + 2 T_(k-1) because I_(k-1) lies in T_(k-1), so T and I share every
head. Every closed form checks its applicability hypotheses and raises
HypothesisError with a machine-readable code when they fail.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bincode import BitVector, rref_basis, NestedCodePair
from .gates import CssCode, PhaseProfile, _constraint_spans, css_from_pair, fixing_group, phase_profile
from .zmod import MAX_LEVEL, ZModule, howell_form, kernel_perp, module_sum, scale_lift

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
    "maximal_elements",
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


def _reach_levels(start, factors, horizon: int) -> dict[int, int]:
    """Mask -> least number of factors that, ORed onto one start mask,
    give it, for up to horizon factors.

    Breadth-first, so the cost is bounded by the number of distinct
    products; it stops at the first level that adds nothing, since later
    levels only recombine masks already reached.
    """
    first = dict.fromkeys(start, 0)
    frontier = set(first)
    for level in range(1, horizon + 1):
        frontier = {f | a for f in frontier for a in factors} - first.keys()
        if not frontier:
            break
        first.update(dict.fromkeys(frontier, level))
    return first


def product_set(inner: MonomialSet, outer: MonomialSet, s: int) -> MonomialSet:
    """Square-free products of one inner monomial and up to s outer ones.

    s = 0 returns the inner set itself.
    """
    if inner.m != outer.m:
        raise ValueError("variable counts differ")
    if s < 0:
        raise ValueError("s must be nonnegative")
    return MonomialSet(inner.m, frozenset(_reach_levels(inner.masks, outer.masks, s)))


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


def maximal_elements(mset: MonomialSet) -> MonomialSet:
    masks = sorted(mset.masks, key=lambda u: u.bit_count(), reverse=True)
    out: list[int] = []
    for u in masks:
        if not any(u & v == u for v in out):
            out.append(u)
    return MonomialSet(mset.m, frozenset(out))


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
    """Nested monomial generating sets for a CSS code of length 2^m."""

    m: int
    outer: MonomialSet
    inner: MonomialSet

    def __post_init__(self) -> None:
        if self.outer.m != self.m or self.inner.m != self.m:
            raise ValueError("variable counts differ")
        if not self.inner.issubset(self.outer):
            raise ValueError("inner monomials must be contained in the outer set")
        if not self.outer.masks:
            raise ValueError("outer set must be nonempty")
        if not self.inner.masks:
            raise ValueError("inner set must be nonempty")

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
        beta2 = tuple(evaluate(self.m, u) for u in self.inner.monomials())
        ext = tuple(evaluate(self.m, u) for u in self.encoding())
        c2 = rref_basis(beta2, n=self.n)
        c1 = rref_basis(beta2 + ext, n=self.n)
        return NestedCodePair(c1, c2, beta2, ext)

    def induced_css(self) -> CssCode:
        return css_from_pair(self.induced_pair())


def _check_level_arg(ell: int) -> None:
    if not 1 <= ell <= MAX_LEVEL:
        raise ValueError(f"level must be in [1, {MAX_LEVEL}]")


def _ev_rows(m: int, masks) -> np.ndarray:
    """Lifted ev(w), one row per mask w: point i is in the support of
    ev(w) exactly when its binary digits contain w."""
    w = np.fromiter(masks, dtype=np.int64)[:, None]
    return ((np.arange(1 << m) & w) == w).astype(np.int64)


def _level_loop(spec: MonomialCodeSpec, ell: int, start, *bases) -> list[ZModule]:
    """The layered closed forms, one module per base mask set, unchecked.

    Level k has the head top_k, spanned by ev(full/u) over the u not
    reachable as a start mask times at most k-1 outer ones. Each module
    is top_k plus its own double from level k-1, so the modules share
    every head; the ev(full/u) of a base set join at level 1 only.
    """
    first = _reach_levels(start, spec.outer.masks, ell - 1)
    level = np.full(spec.n, ell)
    level[list(first)] = list(first.values())
    mods: list[ZModule] = []
    for k in range(1, ell + 1):
        heads = [spec.full_mask ^ u for u in np.flatnonzero(level >= k)]
        if k == 1:
            mods = [
                howell_form(_ev_rows(spec.m, heads + [spec.full_mask ^ u for u in base]), 1, n=spec.n)
                for base in bases
            ]
        else:
            top = howell_form(_ev_rows(spec.m, heads), k, n=spec.n)
            mods = [module_sum(top, scale_lift(mod, k)) for mod in mods]
    return mods


def _mask_token(m: int, mask: int) -> str:
    return Monomial(m, mask).token


def _head_pairing_check(spec: MonomialCodeSpec, ell: int, first: dict[int, int], code: str) -> None:
    """Verify that every head generator annihilates every constraint row.

    first maps each constraint mask w to the factor count t at which it
    is first reached, and the constraint it gives is 2^t * ev(w). The
    level loop adds ev(full/u) unscaled at each level k <= first[u];
    against 2^t * ev(w) the dot product is 2^(t + |u minus w|), so
    membership in the kernel at level k needs t + |u minus w| >= k. The
    requirement is binding at the last level where u is still a head, and
    t is smallest the first time w is reached, so one pairing per (u, w)
    decides all levels at once. Failures are hypothesis errors: the loop
    would produce a module that is not contained in the kernel it is
    meant to describe.
    """
    masks = sorted(range(1 << spec.m), key=lambda x: (x.bit_count(), x))
    constraints = sorted(first, key=lambda x: (x.bit_count(), x))
    for u in masks:
        last_head = min(first.get(u, ell), ell)
        if last_head < 1:
            continue
        for w in constraints:
            scale = first[w]
            need = last_head - scale
            if need >= 1 and (u & ~w).bit_count() < need:
                bad_level = scale + (u & ~w).bit_count() + 1
                raise HypothesisError(
                    code,
                    f"ev({_mask_token(spec.m, spec.full_mask ^ u)}) joins the head at "
                    f"level {bad_level} but its pairing against the scale-{scale} "
                    f"constraint from {_mask_token(spec.m, w)} is only divisible by "
                    f"2^{scale + (u & ~w).bit_count()}",
                    level=bad_level,
                )


def _relative_generator_check(spec: MonomialCodeSpec, ell: int) -> None:
    """The base-level extra generators of the transversal form must clear
    the unscaled inner constraints, and for levels above one each must
    have a second outer divisor so the generic group cannot hold it at a
    lower scale than the level loop assigns."""
    for mono in spec.outer.difference(spec.inner).monomials():
        u = mono.mask
        for w in sorted(spec.inner.masks, key=lambda x: (x.bit_count(), x)):
            if u & ~w == 0:
                raise HypothesisError(
                    "relative_generator_excluded",
                    f"ev({_mask_token(spec.m, spec.full_mask ^ u)}) pairs oddly "
                    f"with the inner constraint from {_mask_token(spec.m, w)}",
                    level=1,
                )
        if ell >= 2 and sum(1 for v in spec.outer.masks if v & ~u == 0) < 2:
            raise HypothesisError(
                "relative_generator_isolated",
                f"{mono.token} has no second outer divisor, so its generator "
                "sits deeper in the level loop than in the generic group",
                level=2,
            )


def _check_power_chain(spec: MonomialCodeSpec, t: int, ell: int) -> None:
    """Raise unless the outer power P(t) differs from P(t-1), P(0) = {1}.

    Products of at most t outer monomials are {1} together with P(t). For
    t >= 2 the monomial 1 lies in P(t) exactly when it lies in P(t-1), and
    for t = 1 both sides are {1} exactly when the outer set is, so P(t)
    equals P(t-1) exactly when this closure from {1} stops before level t.
    """
    if t >= 1 and max(_reach_levels((0,), spec.outer.masks, t).values()) < t:
        raise HypothesisError(
            "power_chain_stalled",
            f"outer power chain is stationary at exponent {t}",
            level=ell,
        )


def _fixing_reach(spec: MonomialCodeSpec, ell: int) -> dict[int, int]:
    """The inner reach table up to ell-1 outer factors, once the full
    monomial is outside it and the outer power chain grows at ell-1."""
    first = _reach_levels(spec.inner.masks, spec.outer.masks, ell - 1)
    if spec.full_mask in first:
        raise HypothesisError(
            "full_product_reached",
            f"the full monomial is a product of inner times {ell - 1} outer monomials",
            level=ell,
        )
    _check_power_chain(spec, ell - 1, ell)
    return first


def validate_fixing_hypotheses(spec: MonomialCodeSpec, ell: int) -> None:
    """Raise HypothesisError unless the fixing-group closed form applies.

    Conditions: the full monomial is not reachable as a product of one
    inner and up to ell-1 outer monomials, the outer power chain has not
    stalled (both propagate to every lower level of the loop), and every
    head generator actually lies in the kernel it describes, which the
    two reachability conditions alone do not guarantee.
    """
    _check_level_arg(ell)
    _head_pairing_check(spec, ell, _fixing_reach(spec, ell), "head_outside_kernel")


def closed_form_fixing_group(spec: MonomialCodeSpec, ell: int) -> ZModule:
    """Closed-form fixing group of a monomial code.

    Level k contributes the span of ev(full/u) over the u not reachable as
    a product of one inner and up to k-1 outer monomials, and the doubled
    group one level down. Applicability is what validate_fixing_hypotheses
    enforces; when it holds the result equals the kernel computation.
    """
    validate_fixing_hypotheses(spec, ell)
    (fixing,) = _level_loop(spec, ell, spec.inner.masks, ())
    return fixing


def validate_transversal_identity_hypotheses(spec: MonomialCodeSpec, ell: int) -> None:
    """Raise HypothesisError unless the transversal/identity closed forms
    apply.

    Conditions: the full monomial lies neither in the inner set nor in
    the outer power minus the outer set, the power chain has not stalled
    at the top level, every head generator clears every kernel
    constraint, and the extra transversal generators clear the inner
    constraints while owning a second outer divisor.
    """
    _check_level_arg(ell)
    full = spec.full_mask
    if full in spec.inner.masks:
        raise HypothesisError(
            "full_in_inner", "the full monomial generates the inner code", level=ell
        )
    first = _reach_levels(spec.outer.masks, spec.outer.masks, ell - 1)
    if full in first and full not in spec.outer.masks:
        raise HypothesisError(
            "full_power_reached",
            f"the full monomial is a product of at most {ell} outer monomials "
            "without generating the outer code",
            level=ell,
        )
    _check_power_chain(spec, ell, ell)
    _head_pairing_check(spec, ell, first, "identity_head_outside_kernel")
    _relative_generator_check(spec, ell)


def closed_form_transversal_identity(
    spec: MonomialCodeSpec, ell: int
) -> tuple[ZModule, ZModule]:
    """Closed-form (transversal, identity) groups of a monomial code.

    The identity group at level k spans ev(full/u) over u outside the
    k-fold outer power, plus the doubled level below; the transversal
    group adds ev(full/u) for u in outer-minus-inner at the base level
    only. Applicability is what validate_transversal_identity_hypotheses
    enforces; when it holds both results equal the kernel computations.
    """
    validate_transversal_identity_hypotheses(spec, ell)
    transversal, identity = _level_loop(
        spec, ell, spec.outer.masks, spec.outer.masks - spec.inner.masks, ()
    )
    return transversal, identity


@dataclass(frozen=True)
class GeneralClosedForm:
    """Minimal level at which the full monomial is reachable, with the
    generating system the displayed general formula produces there."""

    ell: int
    module: ZModule


def closed_form_fixing_group_general(spec: MonomialCodeSpec) -> GeneralClosedForm:
    """General-position fixing group formula at the minimal reachable level.

    Finds the least level whose product set contains the full monomial,
    then spans (ev(u) - ev(1)) over the u that are not complement
    quotients of reachable monomials, doubled tail below. Raises when the
    full monomial is never reached or when the product set saturates (for
    divisibility-closed specs reaching the full monomial always saturates
    the set, so the formula only ever applies to non-closed sets).

    The generating system is emitted exactly as displayed; reports compare
    it against the kernel computation, and the two are not guaranteed to
    agree (the comparison, with a witness on failure, is the point).
    """
    full = spec.full_mask
    first = _reach_levels(spec.inner.masks, spec.outer.masks, MAX_LEVEL)
    if full not in first:
        # the first level whose product set equals the one below, or MAX_LEVEL + 1
        raise HypothesisError(
            "full_unreachable",
            "products of inner and outer monomials never reach the full monomial",
            level=min(max(first.values()) + 2, MAX_LEVEL + 1),
        )
    ell = first[full] + 1
    quotients = {full ^ w for w, t in first.items() if t < ell}
    if len(quotients) == spec.n:
        raise HypothesisError(
            "product_set_saturated",
            "every monomial is reachable at the minimal full level",
            level=ell,
        )
    # u = 0 is left out: ev(1) - ev(1) is the zero row
    rows = (_ev_rows(spec.m, [u for u in range(1, spec.n) if u not in quotients]) - 1) % (1 << ell)
    top = howell_form(rows, ell, n=spec.n)
    if ell == 1:
        return GeneralClosedForm(1, top)
    try:
        tail = closed_form_fixing_group(spec, ell - 1)
    except HypothesisError:
        tail = fixing_group(spec.induced_pair(), ell - 1)
    return GeneralClosedForm(ell, module_sum(top, scale_lift(tail, ell)))


def decreasing_span_monomials(spec: MonomialCodeSpec, ell: int) -> MonomialSet:
    """Monomial supports spanning the top layer of the fixing group.

    For divisibility-closed specs this is the sieve of monomials with no
    complement-quotient of a maximal product dividing them; their
    evaluations span exactly the unscaled layer of the closed form, so the
    span is contained in the fixing group but generally misses the doubled
    tail.
    """
    _check_level_arg(ell)
    if not (is_decreasing(spec.outer) and is_decreasing(spec.inner)):
        raise HypothesisError(
            "not_decreasing",
            "the sieve form needs divisibility-closed monomial sets",
            level=ell,
        )
    _fixing_reach(spec, ell)
    full = spec.full_mask
    top_products = product_set(
        maximal_elements(spec.inner), maximal_elements(spec.outer), ell - 1
    )
    quotients = [full ^ w for w in top_products.masks]
    kept = [
        u
        for u in range(1 << spec.m)
        if not any(q & u == q for q in quotients)
    ]
    return MonomialSet.from_masks(spec.m, kept)


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
    cases are exactly the near-misses.
    """
    _check_level_arg(ell)
    mono = Monomial.parse(spec.m, u) if isinstance(u, str) else u
    if mono.m != spec.m:
        raise ValueError("variable counts differ")
    N = 1 << ell
    coeffs = np.array(
        [pow(2, spec.m - (mono.mask | e.mask).bit_count(), N) for e in spec.encoding()],
        dtype=np.int64,
    )
    css = spec.induced_css()
    fixing_span, transversal_span, _ = _constraint_spans(css, ell)
    b = evaluate(spec.m, mono.mask).to_array()
    return MonomialActionResult(
        monomial=mono,
        ell=ell,
        coefficients=coeffs,
        in_fixing_group=fixing_span.kernel_contains(b),
        in_transversal_group=transversal_span.kernel_contains(b),
        profile=phase_profile(css, ell, b, group=kernel_perp(fixing_span, ell, n=css.n)),
    )


def reed_muller_set(m: int, r: int) -> MonomialSet:
    """All monomials of degree at most r (empty for negative r)."""
    if r < 0:
        return MonomialSet(m, frozenset())
    return MonomialSet(m, frozenset(u for u in range(1 << m) if u.bit_count() <= r))


def reed_muller_degrees(spec: MonomialCodeSpec) -> tuple[int, int] | None:
    """(q, r) when the monomial sets are nested full degree-bounded families."""
    if not spec.inner.masks:
        return None
    q = max(u.bit_count() for u in spec.inner.masks)
    r = max(u.bit_count() for u in spec.outer.masks)
    if spec.inner == reed_muller_set(spec.m, q) and spec.outer == reed_muller_set(spec.m, r):
        return q, r
    return None


def reed_muller_fixing_monomials(m: int, q: int, r: int, ell: int) -> MonomialSet:
    """Monomial supports generating the top of the fixing group of a
    degree-q inside degree-r pair; needs q + (ell-1) r <= m - 1."""
    _check_level_arg(ell)
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
    _check_level_arg(ell)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if ell * r > m - 1:
        raise HypothesisError(
            "degree_bound",
            f"ell * r = {ell * r} exceeds m - 1 = {m - 1}",
            level=ell,
        )
    return reed_muller_set(m, m - ell * r - 1)
