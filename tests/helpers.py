"""Shared builders for the test suite.

Everything here is deterministic: random instances are driven by
explicitly seeded generators so failures reproduce exactly.
"""
import random
from itertools import combinations

import numpy as np

from cssgates import (
    BitVector,
    GateClass,
    GeneralClosedForm,
    Monomial,
    MonomialActionResult,
    MonomialCodeSpec,
    MonomialSet,
    NestedCodePair,
    OracleResult,
    aligned_bases,
    build_css,
    css_from_pair,
    closed_form_fixing_group,
    closed_form_fixing_group_general,
    closed_form_transversal_identity,
    decreasing_span_monomials,
    divisibility_closure,
    dual_basis,
    evaluate,
    fixing_group,
    gate_groups,
    howell_form,
    kernel_perp,
    module_sum,
    reed_muller_set,
    rref_basis,
    scale_lift,
    schur_power,
)
from cssgates import gates
from cssgates.zmod import _check_level
from cssgates.monomial import (
    MAX_LEVEL,
    HypothesisError,
    _TableGroups,
    _complement_form,
    _ev_rows,
    _fixing_reach,
    _head_pairing_check,
    _mask_token,
    _power_chain_stalled,
    _reach_levels,
    is_decreasing,
    product_set,
)

POOL_SEED = 20260816


# ---------------------------------------------------------------- fixtures

def make_mono16_spec() -> MonomialCodeSpec:
    """Four-variable monomial pair: outer {1,x1,x2,x3,x4,x1x2}, inner {1}."""
    m = 4
    return MonomialCodeSpec(
        m,
        MonomialSet.from_tokens(m, ["1", "x1", "x2", "x3", "x4", "x1x2"]),
        MonomialSet.from_tokens(m, ["1"]),
    )


def make_rm_spec() -> MonomialCodeSpec:
    """First-order inside zeroth-order length-16 Reed-Muller pair."""
    return MonomialCodeSpec(4, reed_muller_set(4, 1), reed_muller_set(4, 0))


def make_pair2_css():
    """Two-qubit code: outer = all of F_2^2, inner = span{11}; one logical."""
    c1 = rref_basis([BitVector.from_string("11"), BitVector.from_string("10")], n=2)
    c2 = rref_basis([BitVector.from_string("11")], n=2)
    return build_css(c1, c2)


def make_steane7_css():
    """[7,4] Hamming outer code with its dual (the [7,3] simplex) inside."""
    checks = [
        BitVector.from_string("1010101"),
        BitVector.from_string("0110011"),
        BitVector.from_string("0001111"),
    ]
    c2 = rref_basis(checks, n=7)
    c1 = dual_basis(c2)
    assert all(c1.contains(v) for v in c2.basis)
    return build_css(c1, c2)


# ------------------------------------------------------- random instances

def random_binary_code(rng: random.Random, n: int, k: int):
    rows = []
    while True:
        rows.append(BitVector(n, rng.randrange(1, 1 << n)))
        code = rref_basis(rows, n=n)
        rows = list(code.basis)
        if code.k == k:
            return code
        if code.k > k:
            rows = rows[:k]


def random_nested_css(rng: random.Random, n_max: int = 6, k1_max: int = 4):
    """Random nested pair as a CSS code; inner dimension may be 0 or k1."""
    n = rng.randrange(2, n_max + 1)
    k1 = rng.randrange(1, min(k1_max, n) + 1)
    c1 = random_binary_code(rng, n, k1)
    k2 = rng.randrange(0, k1 + 1)
    rows = []
    while True:
        code = rref_basis(rows, n=n)
        rows = list(code.basis)
        if code.k == k2:
            c2 = code
            break
        mask = rng.randrange(1, 1 << k1)
        word = BitVector(n)
        for j in range(k1):
            if mask >> j & 1:
                word ^= c1.basis[j]
        rows.append(word)
    return build_css(c1, c2)


def random_css_with_logicals(rng: random.Random, K: int, n_max: int = 12):
    """Random nested pair with exactly K logical qubits and up to two inner
    basis vectors (at least one when K = 0), as a CSS code."""
    k2 = rng.randrange(0 if K else 1, 3)
    c1 = random_binary_code(rng, rng.randrange(max(K + k2, 2), n_max + 1), K + k2)
    return build_css(c1, random_subcode(rng, c1, k2))


def random_subcode(rng: random.Random, c1, k2: int):
    """Span of random codewords of c1, drawn until it has dimension k2."""
    rows = []
    while rref_basis(rows, n=c1.n).k < k2:
        rows.append(c1.codeword(rng.randrange(1, 1 << c1.k)))
    return rref_basis(rows, n=c1.n)


def random_decreasing_spec(rng: random.Random, m_max: int = 5) -> MonomialCodeSpec:
    """Random divisibility-closed pair: closure of a few monomial tops."""
    m = rng.randrange(2, m_max + 1)
    tops = []
    for _ in range(rng.randrange(1, 4)):
        deg = rng.randrange(1, min(m - 1, 3) + 1)
        tops.append(sum(1 << i for i in rng.sample(range(m), deg)))
    outer = divisibility_closure(MonomialSet.from_masks(m, tops))
    inner_tops = [u for u in outer.masks if rng.randrange(2)]
    inner = divisibility_closure(MonomialSet.from_masks(m, inner_tops or [0]))
    return MonomialCodeSpec(m, outer, inner)


def random_spec(rng: random.Random, m_max: int = 6) -> MonomialCodeSpec:
    """Seeded spec whose sets need not be divisibility-closed."""
    m = rng.randrange(2, m_max + 1)
    outer = {rng.randrange(1 << m) for _ in range(rng.randrange(1, 2 * m))}
    inner = {u for u in outer if rng.randrange(3) == 0} or {min(outer)}
    return MonomialCodeSpec(m, MonomialSet.from_masks(m, outer), MonomialSet.from_masks(m, inner))


def rm_pairs(m_max: int):
    """RM(q) inside RM(r) for every 0 <= q <= r <= m, 2 <= m <= m_max."""
    for m in range(2, m_max + 1):
        for r in range(m + 1):
            for q in range(r + 1):
                yield MonomialCodeSpec(m, reed_muller_set(m, r), reed_muller_set(m, q))


def realign_pair(pair: NestedCodePair, rng: random.Random) -> NestedCodePair:
    """Random coset-respecting realignment of the aligned bases.

    Re-bases the inner code, shifts each logical representative by inner
    words, and permutes the representatives. Mixing representatives into
    one another over GF(2) is deliberately excluded: it relabels the
    cosets and genuinely changes which actions factor into single-qubit
    gates (see test_gates.test_transversal_not_invariant_under_mixing).
    """
    K = pair.num_logical
    k2 = len(pair.beta2)
    n = pair.n
    new_beta2 = pair.beta2
    if k2:
        while True:
            masks = [rng.randrange(1, 1 << k2) for _ in range(k2)]
            if rref_basis([BitVector(k2, r) for r in masks], n=k2).k == k2:
                break
        combined = []
        for mask in masks:
            acc = BitVector(n)
            for j in range(k2):
                if mask >> j & 1:
                    acc ^= pair.beta2[j]
            combined.append(acc)
        new_beta2 = tuple(combined)
    order = list(range(K))
    rng.shuffle(order)
    new_ext = []
    for i in order:
        acc = pair.beta1_ext[i]
        for v in pair.beta2:
            if rng.randrange(2):
                acc ^= v
        new_ext.append(acc)
    return NestedCodePair(n, new_beta2, tuple(new_ext))


def mixing_counterexample():
    """A nested pair plus a GF(2)-mixed realignment whose transversal
    groups differ (the gate with a single order-4 phase on coordinate 5
    is a product for one encoding but not the other)."""
    beta2 = (BitVector.from_string("111101"),)
    ext = (BitVector.from_string("010100"), BitVector.from_string("001111"))
    pair = NestedCodePair(6, beta2, ext)
    mixed_ext = (ext[1] ^ beta2[0], ext[0] ^ ext[1] ^ beta2[0])
    mixed = NestedCodePair(6, beta2, mixed_ext)
    return pair, mixed


def product_table_cases():
    """Seeded (pair, ell) cases for the product table, ell = 1..4.

    Random nested pairs plus pairs with no inner code (k2 = 0), with no
    logical qubits (K = 0), and two with nested or disjoint supports,
    where products repeat across levels or vanish; in the second, one
    product of two inner rows is also the product of an inner row and an
    extension row.
    """
    rng = random.Random(POOL_SEED + 7)
    pairs = []
    for _ in range(24):
        n = rng.randrange(3, 9)
        c1 = random_binary_code(rng, n, rng.randrange(2, min(n, 5) + 1))
        inner = [c1.codeword(rng.randrange(1, 1 << c1.k)) for _ in range(rng.randrange(1, c1.k))]
        pairs.append(realign_pair(aligned_bases(c1, rref_basis(inner, n=n)), rng))
    cases = [(pair, 1 + i % 4) for i, pair in enumerate(pairs)]
    c1 = random_binary_code(rng, 6, 4)
    special = [aligned_bases(c1, rref_basis([], n=6)), aligned_bases(c1, c1)]
    for inner, ext in (
        (("1111000", "1110000"), ("1100000", "0000011")),
        (("1110000", "1100000"), ("1101000", "0000011")),
    ):
        beta2 = tuple(map(BitVector.from_string, inner))
        beta1_ext = tuple(map(BitVector.from_string, ext))
        special.append(NestedCodePair(7, beta2, beta1_ext))
    return cases + [(pair, ell) for pair in special for ell in (1, 2, 3, 4)]


def repeated(code, times: int):
    """The code whose words are `times` copies of a word of code, side by
    side: every weight is a multiple of times."""
    n = code.n
    rows = [BitVector(n * times, sum(v.bits << n * t for t in range(times))) for v in code.basis]
    return rref_basis(rows, n=n * times)


def scan_cases():
    """Seeded (name, code) cases for the packed codeword walks.

    Small random codes, every other one with a Z shift; RM(0,7) inside
    RM(1,7) at n = 128, two limbs a word, plain and shifted; a random
    pair with k1 = 18, so the walk has high blocks, and its four-fold
    repetition at n = 80, whose weights are all divisible by 4; a shifted
    pair with dim C2 = 17, so one coset spans several blocks; and a pair
    with no logical qubits.
    """
    rng = random.Random(POOL_SEED + 11)
    cases = []
    for i in range(8):
        css = random_nested_css(rng, n_max=9, k1_max=6)
        y_z = BitVector(css.n, rng.randrange(1 << css.n)) if i % 2 else None
        cases.append((f"random{i}", css_from_pair(css.pair, y_z=y_z)))
    rm = MonomialCodeSpec(7, reed_muller_set(7, 1), reed_muller_set(7, 0)).induced_css()
    cases.append(("rm07_17", rm))
    cases.append(("rm07_17_shifted", css_from_pair(rm.pair, y_z=BitVector(128, rng.randrange(1 << 128)))))
    c1 = random_binary_code(rng, 20, 18)
    c2 = random_subcode(rng, c1, 6)
    cases.append(("k1_18", build_css(c1, c2)))
    cases.append(("k1_18_repeated4", build_css(repeated(c1, 4), repeated(c2, 4))))
    c1 = random_binary_code(rng, 20, 19)
    pair = build_css(c1, random_subcode(rng, c1, 17)).pair
    cases.append(("k2_17_shifted", css_from_pair(pair, y_z=BitVector(20, rng.randrange(1 << 20)))))
    c1 = random_binary_code(rng, 10, 6)
    cases.append(("no_logicals", build_css(c1, c1)))
    return cases


# ------------------------------------------------ unchecked closed forms

def reach_levels_reference(start, factors, horizon: int) -> dict[int, int]:
    """Mask -> least number of factors that, ORed onto one start mask,
    give it, for up to horizon factors: a breadth-first search over sets.
    The reference for monomial._reach_levels."""
    first = dict.fromkeys(start, 0)
    frontier = set(first)
    for level in range(1, horizon + 1):
        frontier = {f | a for f in frontier for a in factors} - first.keys()
        if not frontier:
            break
        first.update(dict.fromkeys(frontier, level))
    return first


def level_table(m: int, ell: int, first: dict) -> np.ndarray:
    """A reach table given as a dict of reached masks, written as the level
    array the checks read: first.get(u, ell) for every mask u < 2^m."""
    return np.array([first.get(u, ell) for u in range(1 << m)], dtype=np.int64)


def level_loop_reference(spec: MonomialCodeSpec, ell: int, first: dict, *bases) -> list:
    """The closed forms built bottom-up, one module per base mask set,
    unchecked. The reference for monomial._complement_form.

    Level k has the head top_k, spanned by ev(full/u) over the u with
    first.get(u, ell) >= k. Each module is top_k plus its own double from
    level k-1, so the modules share every head; the ev(full/u) of a base
    set join at level 1 only.
    """
    level = np.full(spec.n, ell)
    level[list(first)] = list(first.values())
    mods = []
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


def raw_fixing(spec: MonomialCodeSpec, ell: int):
    """The fixing closed form with no hypothesis checked: what the
    formula would produce."""
    return _complement_form(spec, ell, _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, ell - 1))


def raw_transversal_identity(spec: MonomialCodeSpec, ell: int):
    """(T, Id) as the closed forms build them, with no hypothesis checked."""
    first = _reach_levels(spec.n, spec.outer.masks, spec.outer.masks, ell - 1)
    relative = spec.outer.masks - spec.inner.masks
    return _complement_form(spec, ell, first, relative), _complement_form(spec, ell, first)


def general_fixing_reference(spec: MonomialCodeSpec):
    """closed_form_fixing_group_general with the head and the doubled
    tail canonicalised apart and joined by module_sum and scale_lift."""
    full = spec.full_mask
    first = reach_levels_reference(spec.inner.masks, spec.outer.masks, MAX_LEVEL)
    if full not in first:
        raise HypothesisError(
            "full_unreachable",
            "products of inner and outer monomials never reach the full monomial",
            level=min(max(first.values()) + 2, MAX_LEVEL + 1),
        )
    ell = first[full] + 1
    quotients = {full ^ w for w, t in first.items() if t < ell}
    if len(quotients) == spec.n:
        raise HypothesisError(
            "product_set_saturated", "every monomial is reachable at the minimal full level", level=ell
        )
    rows = (_ev_rows(spec.m, [u for u in range(1, spec.n) if u not in quotients]) - 1) % (1 << ell)
    top = howell_form(rows, ell, n=spec.n)
    if ell == 1:
        return GeneralClosedForm(1, top)
    try:
        tail = closed_form_fixing_group(spec, ell - 1)
    except HypothesisError:
        tail = fixing_group(spec.induced_pair(), ell - 1)
    return GeneralClosedForm(ell, module_sum(top, scale_lift(tail, ell)))


def transversal_identity_table_reference(spec: MonomialCodeSpec, ell: int) -> np.ndarray:
    """The T/Id hypothesis checks with the power chain read off its own
    breadth-first table from {1}, in the same order."""
    _check_level(ell)
    full = spec.full_mask
    if full in spec.inner.masks:
        raise HypothesisError("full_in_inner", "the full monomial generates the inner code", level=ell)
    first = _reach_levels(spec.n, spec.outer.masks, spec.outer.masks, ell - 1)
    if first[full] < ell and full not in spec.outer.masks:
        raise HypothesisError(
            "full_power_reached",
            f"the full monomial is a product of at most {ell} outer monomials "
            "without generating the outer code",
            level=ell,
        )
    power_chain_reference(spec, ell, ell)
    _head_pairing_check(spec, ell, first, "identity_head_outside_kernel")
    relative_generator_reference(spec, ell)
    return first


def power_chain_reference(spec: MonomialCodeSpec, t: int, ell: int) -> None:
    """Raise unless the outer power P(t) differs from P(t-1), P(0) = {1},
    by its own closure from {1}. The reference for monomial._chain_stalls.

    Products of at most t outer monomials are {1} together with P(t). For
    t >= 2 the monomial 1 lies in P(t) exactly when it lies in P(t-1), and
    for t = 1 both sides are {1} exactly when the outer set is, so P(t)
    equals P(t-1) exactly when this closure from {1} stops before level t.
    """
    if t >= 1 and max(reach_levels_reference((0,), spec.outer.masks, t).values()) < t:
        raise _power_chain_stalled(t, ell)


def relative_generator_reference(spec: MonomialCodeSpec, ell: int) -> None:
    """The relative generator checks as a loop over the outer-minus-inner
    u in (degree, mask) order, each against every inner w and then its
    outer divisors. The reference for monomial._relative_generator_check."""
    inner = [mono.mask for mono in spec.inner.monomials()]
    for mono in spec.outer.difference(spec.inner).monomials():
        u = mono.mask
        for w in inner:
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


def head_pairing_reference(spec: MonomialCodeSpec, ell: int, first: np.ndarray, code: str) -> None:
    """The head pairing check as a nested loop over (u, w), u then w in
    (degree, mask) order, on a reach table of horizon ell - 1. The
    reference for monomial._head_pairing_check."""
    masks = sorted(range(1 << spec.m), key=lambda x: (x.bit_count(), x))
    constraints = [w for w in masks if first[w] < ell]
    for u in masks:
        last_head = int(first[u])
        if last_head < 1:
            continue
        for w in constraints:
            scale = int(first[w])
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


def maximal_elements_reference(mset: MonomialSet) -> MonomialSet:
    """The members no other member strictly contains."""
    masks = sorted(mset.masks, key=lambda u: u.bit_count(), reverse=True)
    out: list[int] = []
    for u in masks:
        if not any(u & v == u for v in out):
            out.append(u)
    return MonomialSet(mset.m, frozenset(out))


def sieve_reference(spec: MonomialCodeSpec, ell: int) -> MonomialSet:
    """The span-candidate sieve from the products of maximal elements: the
    u that no complement-quotient of such a product divides. The
    reference for monomial.decreasing_span_monomials."""
    _check_level(ell)
    if not (is_decreasing(spec.outer) and is_decreasing(spec.inner)):
        raise HypothesisError(
            "not_decreasing",
            "the sieve form needs divisibility-closed monomial sets",
            level=ell,
        )
    _fixing_reach(spec, ell)
    full = spec.full_mask
    top_products = product_set(
        maximal_elements_reference(spec.inner), maximal_elements_reference(spec.outer), ell - 1
    )
    quotients = [full ^ w for w in top_products.masks]
    kept = [
        u
        for u in range(1 << spec.m)
        if not any(q & u == q for q in quotients)
    ]
    return MonomialSet.from_masks(spec.m, kept)


# ------------------------------------------------------ reference oracles

def closed_form_report_reference(job) -> dict:
    """The closed-form block of a CLI job's report, each closed form
    compared with the kernel route (gate_groups, fixing_group) on the
    unshifted pair, whatever the job's y_z."""
    spec, ell = job.spec, job.ell
    pair = job.code.pair
    generic = dict(zip(("H", "T", "Id"), gate_groups(pair, ell)))
    report: dict = {}

    def entry(mod) -> dict:
        return {"length": mod.length, "generators": mod.gens.tolist()}

    def mismatch(computed, reference):
        for row in computed.gens:
            if not reference.contains(row):
                return row.tolist()
        for row in reference.gens:
            if not computed.contains(row):
                return row.tolist()
        return None

    def theorem_entry(key: str, outcome) -> None:
        if isinstance(outcome, HypothesisError):
            report[key] = {**entry(generic[key]), "fallback": True, "reason": outcome.code,
                           "reason_level": outcome.level, "matches_generic": None}
            return
        assert outcome == generic[key], key
        report[key] = {**entry(outcome), "fallback": False, "matches_generic": True}

    try:
        h_mod = closed_form_fixing_group(spec, ell)
    except HypothesisError as exc:
        h_mod = exc
    theorem_entry("H", h_mod)
    try:
        t_mod, id_mod = closed_form_transversal_identity(spec, ell)
    except HypothesisError as exc:
        t_mod = id_mod = exc
    theorem_entry("T", t_mod)
    theorem_entry("Id", id_mod)
    try:
        general = closed_form_fixing_group_general(spec)
    except HypothesisError as exc:
        report["general"] = {"reason": exc.code, "reason_level": exc.level}
    else:
        reference = fixing_group(pair, general.ell)
        matches = general.module == reference
        report["general"] = {"level": general.ell, "length": general.module.length, "matches_generic": matches,
                             "witness": None if matches else mismatch(general.module, reference)}
    try:
        sieve = decreasing_span_monomials(spec, ell)
    except HypothesisError as exc:
        report["span_candidates"] = {"reason": exc.code, "reason_level": exc.level}
    else:
        span = howell_form([evaluate(spec.m, u).to_array() for u in sieve.monomials()], ell, n=spec.n)
        inside = bool(generic["H"].contains_module(span))
        report["span_candidates"] = {"monomials": sieve.tokens(), "span_in_H": inside,
                                     "witness": None if inside else mismatch(span, generic["H"])}
    return {"closed_form": report}


def howell_reference(mat: np.ndarray, ell: int) -> np.ndarray:
    """Howell form by the row-at-a-time Python loop, in int64.

    The reference for zmod._howell: the same column order, pivot choice,
    annihilator rows and back-substitution, one row at a time.
    """
    N = 1 << ell
    n = mat.shape[1]

    def v2(x: int) -> int:
        return (x & -x).bit_length() - 1

    pending = [row.copy() for row in mat if row.any()]
    placed = []
    for col in range(n):
        touch, keep = [], []
        for r in pending:
            (touch if r[col] else keep).append(r)
        if not touch:
            pending = keep
            continue
        a = min(v2(int(r[col])) for r in touch)
        idx = next(i for i, r in enumerate(touch) if v2(int(r[col])) == a)
        piv = touch.pop(idx)
        odd = int(piv[col]) >> a
        if odd != 1:
            piv = piv * pow(odd, -1, N) % N
        for r in touch:
            r = (r - (int(r[col]) >> a) * piv) % N
            if r.any():
                keep.append(r)
        if a:
            ann = piv << (ell - a) & (N - 1)
            if ann.any():
                keep.append(ann)
        placed.append((col, a, piv))
        pending = keep
    rows = [piv for _, _, piv in placed]
    for i, (col, a, _) in enumerate(placed):
        for j in range(i):
            q = int(rows[j][col]) >> a
            if q:
                rows[j] = (rows[j] - q * rows[i]) % N
    if not rows:
        return np.zeros((0, n), dtype=np.int64)
    return np.vstack(rows)


def product_table_reference(masks, r: int, n: int) -> dict:
    """Distinct products of r distinct rows, one combination at a time.

    Maps each product to its least end: the least, over the r-subsets
    giving it, of the largest index in the subset (-1 for the empty one).
    The reference for bincode._product_levels.
    """
    table = {}
    for combo in combinations(range(len(masks)), r):
        bits = (1 << n) - 1
        for i in combo:
            bits &= masks[i]
        end = combo[-1] if combo else -1
        table[bits] = min(table.get(bits, end), end)
    return table


def distinct_product_rows(pair: NestedCodePair, sizes, need_outside: bool) -> list:
    """Rows 2^(j-1) * lift of products of j distinct outer basis vectors.

    One combination at a time, deduplicated. With need_outside, only
    products of subsets that involve at least one extension vector are
    emitted. The reference for the constraint systems gates reads off its
    product table.
    """
    beta1 = pair.beta1
    k2 = len(pair.beta2)
    seen = {}
    for j in sizes:
        for combo in combinations(range(len(beta1)), j):
            if need_outside and combo[-1] < k2:
                continue
            vec = beta1[combo[0]]
            for idx in combo[1:]:
                vec = vec & beta1[idx]
            row = vec.to_array() << (j - 1)
            seen.setdefault(row.tobytes(), row)
    return list(seen.values())


def stabilizer_rows_reference(pair: NestedCodePair, ell: int) -> list:
    """Rows 2^i * lift(v * p) for inner v and p a product of i distinct
    outer basis vectors, i < ell, one combination at a time."""
    rows = []
    for i in range(ell):
        for combo in combinations(pair.beta1, i):
            for v in pair.beta2:
                for w in combo:
                    v = v & w
                rows.append(v.to_array() << i)
    return rows


def decomposition_reference(code, ell: int, b) -> list:
    """(qubits, phase) of every nonzero controlled-phase factor of U(b),
    one combination of extension vectors at a time, with no membership
    check. The reference for gates._controlled_phases."""
    N = 1 << ell
    eff = np.asarray(b, dtype=np.int64) % N * (1 - 2 * code.y_z.to_array()) % N
    ext = code.pair.beta1_ext
    factors = []
    for h in range(1, min(len(ext), ell) + 1):
        for combo in combinations(range(len(ext)), h):
            vec = ext[combo[0]]
            for idx in combo[1:]:
                vec = vec & ext[idx]
            a = pow(-2, h - 1, N) * int(eff @ vec.to_array() % N) % N
            if a:
                factors.append((tuple(q + 1 for q in combo), a))
    return factors


def subset_sums_reference(a: np.ndarray, m: int, sign: int = 1) -> np.ndarray:
    """In place, the zeta transform of a over its first axis (with sign
    -1 the Moebius inverse), one step per variable from the lowest on the
    natural layout, so the first steps run over blocks of one row. The
    reference for gates._subset_sums."""
    op = np.add if sign == 1 else np.subtract
    for k in range(m):
        view = a.reshape(1 << (m - 1 - k), 2, -1)
        op(view[:, 1], view[:, 0], out=view[:, 1])
    return a


def profile_reference(code, ell: int, b) -> tuple[np.ndarray, int]:
    """(phases relative to coset 0, global phase) from the direct product
    of the 2^K x n table of coset labels y_z xor (chosen extension
    vectors) with b. The reference for gates.phase_profile."""
    N = 1 << ell
    K = code.num_logical
    coeffs = (np.arange(1 << K)[:, None] >> np.arange(K)) & 1
    ext = np.array([w.to_array() for w in code.pair.beta1_ext], dtype=np.int64).reshape(K, code.n)
    labels = (coeffs @ ext + code.y_z.to_array()) % 2
    direct = labels @ (np.asarray(b, dtype=np.int64) % N) % N
    return (direct - direct[0]) % N, int(direct[0])


def power_dual_reference(pair: NestedCodePair, ell: int) -> bool:
    """The power-dual containment by elimination: the dual basis of the
    (ell-1)-th Schur power of the outer code (of the all-ones word at
    ell = 1), with every inner basis row reduced against it."""
    if ell == 1:
        power = rref_basis([BitVector.all_ones(pair.n)], n=pair.n)
    else:
        power = schur_power(pair.c1, ell - 1)
    perp = dual_basis(power)
    return all(perp.contains(v) for v in pair.beta2)


def weight_scan_reference(pair: NestedCodePair, ell: int) -> tuple[bool, bool]:
    """(all outer weights divisible by 2^ell, coset weight rule holds), by
    0/1 coefficient blocks times the 0/1 basis matrix. The reference for
    gates._weight_scan."""
    N = 1 << ell
    k2 = len(pair.beta2)
    K = pair.num_logical
    k1 = k2 + K
    rows01 = np.array([v.to_array() for v in pair.beta1], dtype=np.uint8).reshape(k1, pair.n)
    ext_weights = np.array([w.weight for w in pair.beta1_ext], dtype=np.int64)
    divisible = True
    coset_rule = True
    total = 1 << k1
    step = min(total, 1 << 16)
    shifts = np.arange(k1, dtype=np.uint32)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint32)
        coeffs = (idx[:, None] >> shifts) & 1
        words = coeffs.astype(np.uint8) @ rows01 & 1
        weights = words.sum(axis=1, dtype=np.int64)
        if (weights % N).any():
            divisible = False
        expected = coeffs[:, k2:].astype(np.int64) @ ext_weights % N
        if ((weights - expected) % N).any():
            coset_rule = False
    return divisible, coset_rule


def _span_words_reference(rows, n: int) -> np.ndarray:
    # all 2^k sums of the rows as a 0/1 int64 matrix, row 0 on bit 0
    out = np.zeros((1 << len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        bit = 1 << i
        out[bit : 2 * bit] = out[:bit] ^ row.to_array()
    return out


def coset_phase_reference(code, ell: int, b) -> OracleResult:
    """oracle.coset_phase_check one coset at a time: each coset's words as
    a 0/1 int64 matrix times b, and the additive phases one coset at a
    time. The reference for the packed, blocked walk."""
    N = 1 << ell
    arr = np.asarray(b, dtype=np.int64) % N
    inner = _span_words_reference(code.pair.beta2, code.n)
    labels = _span_words_reference(code.pair.beta1_ext, code.n) ^ code.y_z.to_array()
    phases = np.zeros(len(labels), dtype=np.int64)
    for v, label in enumerate(labels):
        words = inner ^ label
        ph = words @ arr % N
        if not (ph == ph[0]).all():
            bad = int(np.flatnonzero(ph != ph[0])[0])
            word = "".join(str(x) for x in words[bad])
            return OracleResult(
                GateClass.OUTSIDE,
                None,
                {"coset": v, "word": word, "phase": int(ph[bad]), "expected": int(ph[0])},
            )
        phases[v] = ph[0]
    norm = (phases - phases[0]) % N
    additive = np.zeros_like(norm)
    for v in range(1, len(norm)):
        low = v & -v
        additive[v] = (additive[v & (v - 1)] + norm[low]) % N
    if (phases == 0).all():
        return OracleResult(GateClass.IDENTITY, phases, None)
    mismatch = np.flatnonzero(norm != additive)
    if mismatch.size:
        v = int(mismatch[0])
        return OracleResult(
            GateClass.FIXES_CODE,
            phases,
            {"coset": v, "phase": int(norm[v]), "additive": int(additive[v])},
        )
    return OracleResult(GateClass.TRANSVERSAL, phases, None)


# ----------------------------------------------------------------- misc

def points(arr) -> set:
    """Rows of an integer array as a set of tuples."""
    return set(map(tuple, np.asarray(arr, dtype=np.int64).tolist()))


def module_perp(mod):
    return kernel_perp(mod.gens, mod.ell, n=mod.n)


def flipped_spans_reference(code, ell: int, spans=None) -> tuple:
    """The constraint spans of a code with a Z shift, by flipping the spans:
    the pair's spans (gates._pair_spans, unless given) with every
    generator negated on y_z, and y_z itself joined to Id's, each
    canonicalised again. Their kernels are the code's H, T and Id."""
    if spans is None:
        spans = gates._pair_spans(code.pair, ell)
    if not code.y_z.bits:
        return tuple(spans)
    y_z = code.y_z.to_array()
    rows = [spans[0].gens, spans[1].gens, np.vstack([spans[2].gens, y_z])]
    return tuple(howell_form(r * (1 - 2 * y_z), ell, n=code.n) for r in rows)


def monomial_action_reference(spec: MonomialCodeSpec, ell: int, u) -> MonomialActionResult:
    """monomial_action through the kernel-era construction: memberships
    from the exponent tables, and the profile from gates.phase_profile on
    the induced code with H's Howell form as its group."""
    _check_level(ell)
    mono = Monomial.parse(spec.m, u) if isinstance(u, str) else u
    N = 1 << ell
    coeffs = np.array([pow(2, spec.m - (mono.mask | e.mask).bit_count(), N) for e in spec.encoding()],
                      dtype=np.int64)
    groups = _TableGroups(spec, ell)
    b = evaluate(spec.m, mono.mask).to_array()
    return MonomialActionResult(
        monomial=mono,
        ell=ell,
        coefficients=coeffs,
        in_fixing_group=groups.contains("H", b),
        in_transversal_group=groups.contains("T", b),
        profile=gates.phase_profile(spec.induced_css(), ell, b, group=groups.module("H")),
    )
