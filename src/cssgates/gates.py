"""Diagonal-gate groups of a CSS code over Z/2^ell and their logical action.

A CSS code here is a nested pair (C2 inside C1) plus two sign characters
y_x, y_z. The physical gates considered are U(b) = prod_i diag(1, w^{b_i})
with w = exp(2 pi i / 2^ell). Three nested groups of exponent vectors b
are the kernels of three nested constraint spans, each span an explicit
set of equations:

* fixing_group (H): U(b) preserves the code space (phases constant on
  each coset of C2 inside C1);
* transversal_group (T): U(b) additionally acts on the logical qubits as
  a tensor product of single-qubit diagonal factors;
* identity_group (Id): U(b) acts as the exact identity on the code space.

Every equation is a product of distinct outer basis vectors, scaled by
a power of two, and all of them are read off one table of those
products (bincode._product_levels), lifted to rows once per system. The
stabilizer constraints 2^i * (v * p) pair each inner basis vector v
with the products p of i outer ones, independently of the direct
systems of T and Id, which take the products themselves.

A group holds b exactly when b annihilates its span
(ZModule.kernel_contains), and its length is n * ell minus the span's,
so memberships and lengths are read off the spans and a kernel is solved
only where a module is returned: gate_groups solves three, the
projections one each. The constraints of T and of Id are also derived a
second, independent way; over Z/2^ell two constraint spans are equal
exactly when their kernels are, so the two derivations are cross-checked
by comparing Howell forms of their spans, and a mismatch raises
ConsistencyError. A nonzero y_z enters by flipping the signs of the span
generators on its support; conjugate_by_yz transfers single memberships
and actions the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .bincode import (
    BinaryCode,
    BitVector,
    NestedCodePair,
    aligned_bases,
    dual_basis,
    rref_basis,
    _product_levels,
    _unpack,
    schur_power,
)
from .zmod import ZModule, dot_mod, howell_form, kernel_perp, module_sum, scale_lift

__all__ = [
    "ConsistencyError",
    "CssCode",
    "PhaseProfile",
    "ControlledFactor",
    "LogicalDecomposition",
    "AllOnesReport",
    "build_css",
    "css_from_pair",
    "stabilizer_constraints",
    "fixing_group",
    "gate_groups",
    "transversal_group",
    "identity_group",
    "logical_phase",
    "phase_profile",
    "decompose_action",
    "conjugate_by_yz",
    "rebase_action",
    "all_ones_report",
]


class ConsistencyError(RuntimeError):
    """Two formulations that must agree produced different results."""


@dataclass(frozen=True)
class CssCode:
    """Nested pair plus the X/Z sign characters."""

    pair: NestedCodePair
    y_x: BitVector
    y_z: BitVector

    def __post_init__(self) -> None:
        if self.y_x.n != self.pair.n or self.y_z.n != self.pair.n:
            raise ValueError("character length differs from code length")

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def num_logical(self) -> int:
        return self.pair.num_logical


def build_css(
    c1: BinaryCode,
    c2: BinaryCode,
    y_x: BitVector | None = None,
    y_z: BitVector | None = None,
) -> CssCode:
    """CSS code from nested binary codes, with deterministic aligned bases."""
    pair = aligned_bases(c1, c2)
    return css_from_pair(pair, y_x, y_z)


def css_from_pair(
    pair: NestedCodePair,
    y_x: BitVector | None = None,
    y_z: BitVector | None = None,
) -> CssCode:
    n = pair.n
    if y_x is None:
        y_x = BitVector(n)
    if y_z is None:
        y_z = BitVector(n)
    return CssCode(pair, y_x, y_z)


def _pair_of(code) -> NestedCodePair:
    return code.pair if isinstance(code, CssCode) else code


def stabilizer_constraints(pair: NestedCodePair, ell: int) -> np.ndarray:
    """Constraint rows whose mod-2^ell kernel is the fixing group.

    One int64 matrix of the rows 2^i * lift(v * p) for every inner basis
    vector v and every product p of i distinct outer basis vectors,
    i < ell, deduplicated and without zero rows, in deterministic order.
    """
    pair = _pair_of(pair)
    return _stabilizer_rows(pair, _product_levels([v.bits for v in pair.beta1], ell - 1, pair.n))


def _stabilizer_rows(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # v * p for every inner v and every product p in levels, not the
    # table's products that end on an inner index: the span cross-checks
    # need S_H derived independently of the direct systems
    rows = {(v.bits & p, i): None
            for i, level in enumerate(levels) for p in level for v in pair.beta2}
    return _scaled([row for row in rows if row[0]], pair.n)


def _products(levels: list[dict[int, int]], start: int, least_end: int = -1) -> list:
    # (product, r - 1) for the products of r >= start rows whose least end
    # is at least least_end
    return [(p, r - 1) for r in range(start, len(levels))
            for p, end in levels[r].items() if end >= least_end]


def _scaled(rows: list[tuple[int, int]], n: int) -> np.ndarray:
    """Rows 2^s * lift(p) for the (p, s) pairs, lifted in one pass."""
    shifts = np.array([s for _, s in rows], dtype=np.int64)
    return _unpack([p for p, _ in rows], n) << shifts[:, None]


def _flip_vector(code) -> np.ndarray | None:
    """Sign pattern 1 - 2*y_z when the code carries a nonzero Z shift."""
    if isinstance(code, CssCode) and code.y_z.bits:
        return 1 - 2 * code.y_z.to_array()
    return None


def _flipped(code, rows: np.ndarray) -> np.ndarray:
    """Rows of the unshifted pair, moved to code: a gate relates to a code
    with a Z shift as its coordinate-flipped partner relates to the pair,
    and flipping is self-adjoint, so there the rows are flipped."""
    flip = _flip_vector(code)
    return rows if flip is None else rows * flip


def fixing_group(code, ell: int) -> ZModule:
    """Exponent vectors whose gate preserves the code space: the kernel
    of the span of the stabilizer constraints."""
    n = _pair_of(code).n
    rows = _flipped(code, stabilizer_constraints(code, ell))
    return kernel_perp(howell_form(rows, ell, n=n), ell, n=n)


def _transversal_rows_direct(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # inner basis at scale 1, then all distinct products of r >= 2 outer
    # basis vectors at scale 2^(r-1)
    return _scaled([(v.bits, 0) for v in pair.beta2] + _products(levels, 2), pair.n)


def _identity_rows_direct(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # all distinct products of r >= 1 outer basis vectors at scale 2^(r-1)
    return _scaled(_products(levels, 1), pair.n)


def _check_span(group: str, direct: ZModule, refined: ZModule) -> None:
    # over Z/2^ell two constraint spans are equal exactly when their
    # kernels are, so comparing the spans checks the two derivations of
    # the group without solving either system
    if direct != refined:
        raise ConsistencyError(
            f"{group} group: the two constraint systems disagree "
            f"(constraint span lengths {direct.length} vs {refined.length})"
        )


def _constraint_spans(code, ell: int) -> tuple[ZModule, ZModule, ZModule]:
    """The nested constraint spans S_H, S_T and S_Id of code, in Howell form.

    Every system is read off one table of the distinct products of up to
    ell outer basis vectors. S_H is the span of the stabilizer
    constraints. S_T adds the products of r >= 2 outer basis vectors
    whose least end is an extension vector: a product of inner vectors
    alone is already a stabilizer constraint. S_Id adds the extension
    vectors. Each span is canonicalised once, growing from the one before.

    T and Id also have direct constraint systems derived independently of
    these spans. Their spans are compared with S_T and S_Id on the
    unshifted pair; a disagreement raises ConsistencyError naming the
    group. With no logical qubits T equals H and has no separate direct
    system. On a code with a Z shift the three spans are flipped, and
    y_z itself joins the constraints of Id.
    """
    pair = _pair_of(code)
    n = pair.n
    levels = _product_levels([v.bits for v in pair.beta1], ell, n)
    fixing_span = howell_form(_stabilizer_rows(pair, levels[:ell]), ell, n=n)
    extras = _scaled(_products(levels, 2, least_end=len(pair.beta2)), n)
    transversal_span = module_sum(fixing_span, howell_form(extras, ell, n=n))
    if pair.num_logical:
        direct_t = howell_form(_transversal_rows_direct(pair, levels), ell, n=n)
        _check_span("transversal", direct_t, transversal_span)
    ext = _unpack([w.bits for w in pair.beta1_ext], n)
    identity_span = module_sum(transversal_span, howell_form(ext, ell, n=n))
    _check_span("identity", howell_form(_identity_rows_direct(pair, levels), ell, n=n), identity_span)
    if _flip_vector(code) is None:
        return fixing_span, transversal_span, identity_span
    rows = [fixing_span.gens, transversal_span.gens, np.vstack([identity_span.gens, code.y_z.to_array()])]
    return tuple(howell_form(_flipped(code, gens), ell, n=n) for gens in rows)


def gate_groups(code, ell: int) -> tuple[ZModule, ZModule, ZModule]:
    """The fixing, transversal and identity groups: the kernels of the
    spans of _constraint_spans, built and cross-checked once."""
    n = _pair_of(code).n
    return tuple(kernel_perp(span, ell, n=n) for span in _constraint_spans(code, ell))


def transversal_group(code, ell: int) -> ZModule:
    """Exponent vectors acting as a tensor product on the logical qubits.

    The kernel of the middle constraint span of gate_groups, which is
    cross-checked there; one kernel, not three. With no logical qubits
    every code-preserving gate qualifies.
    """
    return kernel_perp(_constraint_spans(code, ell)[1], ell, n=_pair_of(code).n)


def identity_group(code, ell: int) -> ZModule:
    """Exponent vectors acting as the exact identity on the code space.

    For unshifted codes this depends only on the outer code; a nonzero Z
    shift additionally forces a zero phase on the shift itself. The
    kernel of the largest constraint span of gate_groups, which is
    cross-checked there; one kernel, not three.
    """
    return kernel_perp(_constraint_spans(code, ell)[2], ell, n=_pair_of(code).n)


def _as_bitmask(v, num_logical: int) -> int:
    if isinstance(v, (int, np.integer)):
        mask = int(v)
    else:
        mask = 0
        for i, bit in enumerate(v):
            if bit not in (0, 1):
                raise ValueError("logical index bits must be 0 or 1")
            mask |= bit << i
    if not 0 <= mask < 1 << num_logical:
        raise ValueError("logical index out of range")
    return mask


def _coset_rep(code: CssCode, mask: int) -> BitVector:
    rep = code.y_z
    for i, w in enumerate(code.pair.beta1_ext):
        if mask >> i & 1:
            rep = rep ^ w
    return rep


def logical_phase(code: CssCode, ell: int, b, v) -> int:
    """Phase exponent picked up by logical basis state v under U(b).

    v may be an int bitmask or a sequence of K bits (bit i selects the
    i-th extension vector). The value is the raw exponent of the coset
    labelled v, including any contribution of y_z.
    """
    mask = _as_bitmask(v, code.num_logical)
    arr = np.asarray(b, dtype=np.int64)
    return dot_mod(arr, _coset_rep(code, mask).to_array(), ell)


_PRODUCT_BLOCK = 1 << 16


def _controlled_phases(code: CssCode, ell: int, eff: np.ndarray):
    """Blocks (J, a_J), |J| = 1..min(K, ell), lexicographic within a level:
    rows of index tuples J and a_J = (-2)^(|J|-1) (eff . prod_J w_j) mod
    2^ell, eff being b mod 2^ell with its signs flipped on y_z. As x xor y
    = x + y - 2xy exactly over Z, the phase of coset v relative to coset 0
    is the sum of the a_J over J inside v, for every b. A block is one
    int64 matmul of _PRODUCT_BLOCK 0/1 entries with eff: sums stay below
    n * 2^ell, exact in int64.
    """
    K = code.num_logical
    N = 1 << ell
    ext = _unpack([w.bits for w in code.pair.beta1_ext], code.n)
    index = np.arange(K)[:, None]
    for h in range(1, min(K, ell) + 1):
        if h > 1:
            # extend each tuple by every larger index, in lexicographic order
            parent, nxt = np.nonzero(np.arange(K) > index[:, -1:])
            index = np.concatenate((index[parent], nxt[:, None]), axis=1)
        step = max(1, _PRODUCT_BLOCK // (h * code.n))
        for start in range(0, len(index), step):
            block = index[start : start + step]
            yield block, ext[block].min(axis=1) @ eff % N * pow(-2, h - 1, N) % N


@dataclass(frozen=True)
class PhaseProfile:
    """Logical phase function of a code-preserving diagonal gate.

    phases[v] is the exponent of coset v relative to coset 0; the raw
    exponent of coset 0 itself is kept as global_phase. in_fixing_group
    records whether the profile is actually well defined.
    """

    ell: int
    num_logical: int
    phases: np.ndarray
    global_phase: int
    in_fixing_group: bool


def phase_profile(code: CssCode, ell: int, b, *, group: ZModule | None = None) -> PhaseProfile:
    """Phases of the cosets under U(b) relative to coset 0, and b . y_z.

    By x xor y = x + y - 2xy, phases[v] sums the a_J of _controlled_phases
    over J inside v: one in-place subset-sum pass per logical qubit, with
    no 2^K x n label table; at most 2^20 terms below 2^ell stay exact in int64.
    """
    K = code.num_logical
    if K > 20:
        raise ValueError("profile table limited to 20 logical qubits")
    N = 1 << ell
    arr = np.asarray(b, dtype=np.int64) % N
    if group is None:
        group = fixing_group(code, ell)
    phases = np.zeros(1 << K, dtype=np.int64)
    for index, coeffs in _controlled_phases(code, ell, _flipped(code, arr) % N):
        phases[(1 << index).sum(axis=1)] = coeffs
    for i in range(K):
        view = phases.reshape(-1, 2, 1 << i)
        view[:, 1] += view[:, 0]
    phases %= N
    return PhaseProfile(
        ell=ell,
        num_logical=K,
        phases=phases,
        global_phase=int(code.y_z.to_array() @ arr) % N,
        in_fixing_group=group.contains(arr),
    )


@dataclass(frozen=True)
class ControlledFactor:
    """One multiply-controlled phase factor: qubits are 1-based, sorted."""

    qubits: tuple[int, ...]
    phase: int


@dataclass(frozen=True)
class LogicalDecomposition:
    """Logical action as a product of multiply-controlled phase gates.

    Factors are ordered by (arity, qubit tuple) and carry only nonzero
    phases. phase_at reconstructs the profile of any basis state.
    """

    ell: int
    num_logical: int
    factors: tuple[ControlledFactor, ...]

    def phase_at(self, v) -> int:
        mask = _as_bitmask(v, self.num_logical)
        inside = (f.phase for f in self.factors if all(mask >> (q - 1) & 1 for q in f.qubits))
        return sum(inside) % (1 << self.ell)


def decompose_action(
    code: CssCode, ell: int, b, *, group: ZModule | None = None
) -> LogicalDecomposition:
    """Controlled-phase decomposition of the logical action of U(b).

    The coefficient on the factor controlled by J is
    (-2)^(|J|-1) * (b . lift of the product of the chosen extension
    vectors), so subsets larger than the level contribute nothing and are
    skipped. On a code with a nonzero Z shift the coordinate-flipped
    vector is decomposed instead, which reproduces the phases relative to
    coset 0 exactly as for unshifted codes. Requires b in the fixing
    group.
    """
    N = 1 << ell
    arr = np.asarray(b, dtype=np.int64) % N
    if group is None:
        group = fixing_group(code, ell)
    if not group.contains(arr):
        raise ValueError("gate does not preserve the code space")
    blocks = _controlled_phases(code, ell, _flipped(code, arr) % N)
    factors = tuple(ControlledFactor(tuple(J), a) for index, coeffs in blocks
                    for J, a in zip((index + 1).tolist(), coeffs.tolist()) if a)
    return LogicalDecomposition(ell=ell, num_logical=code.num_logical, factors=factors)


def conjugate_by_yz(b, y_z: BitVector, ell: int) -> tuple[np.ndarray, int]:
    """Exponent vector and global phase after conjugating by X(y_z).

    Negates the entries selected by y_z; the scalar picked up is
    b . lift(y_z). Applying the map twice returns the input.
    """
    N = 1 << ell
    arr = np.asarray(b, dtype=np.int64) % N
    if arr.shape != (y_z.n,):
        raise ValueError("vector length mismatch")
    flip = y_z.to_array()
    moved = (arr * (1 - 2 * flip)) % N
    return moved, dot_mod(arr, flip, ell)


def rebase_action(c, basis_change: np.ndarray, ell: int) -> np.ndarray:
    """Transversal phase vector after a logical basis change.

    basis_change is a 0/1 matrix M, invertible over GF(2), whose column j
    expresses the new j-th representative in terms of the old ones. The
    new phase vector is c M over Z_2^ell.
    """
    N = 1 << ell
    vec = np.asarray(c, dtype=np.int64) % N
    M = np.asarray(basis_change, dtype=np.int64)
    K = vec.shape[0]
    if M.shape != (K, K):
        raise ValueError("basis change must be square of matching size")
    if np.any((M != 0) & (M != 1)):
        raise ValueError("basis change entries must be 0 or 1")
    row_masks = [BitVector.from_ints(list(row)) for row in M]
    if rref_basis(row_masks, n=K).k != K:
        raise ValueError("basis change is singular over GF(2)")
    return vec @ M % N


@dataclass(frozen=True)
class AllOnesReport:
    """Where the uniform gate U(1,...,1) sits, with corollary checks.

    weights_condition and divisibility are None when the enumeration cap
    (outer dimension 24) leaves them unchecked.
    """

    ell: int
    in_fixing_group: bool
    in_transversal_group: bool
    in_identity_group: bool
    power_dual_contains_inner: bool
    weights_condition: bool | None
    divisibility: bool | None


_SCAN_CAP = 24


def _weight_scan(pair: NestedCodePair, ell: int) -> tuple[bool, bool]:
    """(all outer weights divisible by 2^ell, coset weight rule holds).

    The coset rule asks that every word of coset v weigh the v-weighted
    sum of the extension weights mod 2^ell. Enumerates the outer code by
    coefficient blocks.
    """
    N = 1 << ell
    k2 = len(pair.beta2)
    K = pair.num_logical
    k1 = k2 + K
    rows01 = _unpack([v.bits for v in pair.beta1], pair.n).astype(np.uint8)
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
        if weights.size and (weights % N).any():
            divisible = False
        expected = coeffs[:, k2:].astype(np.int64) @ ext_weights % N if K else np.zeros(len(idx), dtype=np.int64)
        if ((weights - expected) % N).any():
            coset_rule = False
        if not divisible and not coset_rule:
            break
    return divisible, coset_rule


def all_ones_report(code, ell: int) -> AllOnesReport:
    """Classify the uniform gate and cross-check the weight corollaries.

    The weight corollaries are statements about the underlying nested
    pair, so any X/Z characters are ignored, and the memberships are read
    off the pair's constraint spans. Raises ConsistencyError if a
    membership contradicts the corresponding weight scan, or if
    membership in the fixing group does not force the inner code into the
    dual of the (ell-1)-th power of the outer code.
    """
    pair = _pair_of(code)
    ones = np.ones(pair.n, dtype=np.int64)
    in_h, in_t, in_id = (span.kernel_contains(ones) for span in _constraint_spans(pair, ell))

    if ell == 1:
        power = rref_basis([BitVector.all_ones(pair.n)], n=pair.n)
    else:
        power = schur_power(pair.c1, ell - 1)
    perp = dual_basis(power)
    containment_ok = all(perp.contains(v) for v in pair.beta2)
    if in_h and not containment_ok:
        raise ConsistencyError("uniform gate fixes the code but the power-dual containment fails")

    k1 = pair.c1.k
    if k1 <= _SCAN_CAP:
        divisible, coset_rule = _weight_scan(pair, ell)
        if divisible != in_id:
            raise ConsistencyError("identity membership disagrees with the divisibility scan")
        if coset_rule != in_t:
            raise ConsistencyError("transversal membership disagrees with the coset weight rule")
    else:
        divisible, coset_rule = None, None

    return AllOnesReport(
        ell=ell,
        in_fixing_group=in_h,
        in_transversal_group=in_t,
        in_identity_group=in_id,
        power_dual_contains_inner=containment_ok,
        weights_condition=coset_rule,
        divisibility=divisible,
    )
