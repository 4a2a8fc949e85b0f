"""Shared builders for the test suite.

Everything here is deterministic: random instances are driven by
explicitly seeded generators so failures reproduce exactly.
"""
import random
from itertools import combinations

import numpy as np

from cssgates import (
    BitVector,
    MonomialCodeSpec,
    MonomialSet,
    NestedCodePair,
    aligned_bases,
    build_css,
    divisibility_closure,
    dual_basis,
    kernel_perp,
    reed_muller_set,
    rref_basis,
)
from cssgates.monomial import _level_loop

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
    rows = []
    while rref_basis(rows, n=c1.n).k < k2:
        rows.append(c1.codeword(rng.randrange(1, 1 << c1.k)))
    return build_css(c1, rref_basis(rows, n=c1.n))


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
    return NestedCodePair(pair.c1, pair.c2, new_beta2, tuple(new_ext))


def mixing_counterexample():
    """A nested pair plus a GF(2)-mixed realignment whose transversal
    groups differ (the gate with a single order-4 phase on coordinate 5
    is a product for one encoding but not the other)."""
    c1 = rref_basis(
        [BitVector.from_string(s) for s in ("100110", "010100", "001111")], n=6
    )
    c2 = rref_basis([BitVector.from_string("111101")], n=6)
    beta2 = (BitVector.from_string("111101"),)
    ext = (BitVector.from_string("010100"), BitVector.from_string("001111"))
    pair = NestedCodePair(c1, c2, beta2, ext)
    mixed_ext = (ext[1] ^ beta2[0], ext[0] ^ ext[1] ^ beta2[0])
    mixed = NestedCodePair(c1, c2, beta2, mixed_ext)
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
        special.append(NestedCodePair(
            rref_basis(beta2 + beta1_ext), rref_basis(beta2), beta2, beta1_ext))
    return cases + [(pair, ell) for pair in special for ell in (1, 2, 3, 4)]


# ------------------------------------------------ unchecked closed forms

def raw_fixing(spec: MonomialCodeSpec, ell: int):
    """The fixing closed form as the level loop builds it, with no
    hypothesis checked: what the formula would produce."""
    (fixing,) = _level_loop(spec, ell, spec.inner.masks, ())
    return fixing


def raw_transversal_identity(spec: MonomialCodeSpec, ell: int):
    """(T, Id) as the level loop builds them, with no hypothesis checked."""
    relative = spec.outer.masks - spec.inner.masks
    transversal, identity = _level_loop(spec, ell, spec.outer.masks, relative, ())
    return transversal, identity


# ------------------------------------------------------ reference oracles

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


# ----------------------------------------------------------------- misc

def points(arr) -> set:
    """Rows of an integer array as a set of tuples."""
    return set(map(tuple, np.asarray(arr, dtype=np.int64).tolist()))


def module_perp(mod):
    return kernel_perp(mod.gens, mod.ell, n=mod.n)
