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
only where a module is returned, each one zmod.kernel_perp call:
gate_groups solves H on the whole space, T inside H and Id inside T,
each with only the rows its span adds (none, and no solve, where it adds
none); a lone projection solves one on the whole space. The constraints
of T and of Id are also derived a second, independent way; over Z/2^ell
two constraint spans are equal exactly when their kernels are, so the
two derivations are cross-checked by comparing Howell forms of their
spans, and a mismatch raises ConsistencyError. A nonzero Z shift y_z
moves each group by the flip D = diag(1 - 2 y_z), and Id also needs
b . y_z = 0: that rule is written once, in _Groups, over a route that
answers for the unshifted pair (_SpanGroups off the spans,
monomial._TableGroups off exponent tables), and it is folded into the
one kernel_perp call of each module.

groups(code, ell) is the one entry point: it picks the route (a
MonomialCodeSpec goes to the tables, a pair or a CssCode to the spans)
and moves a CssCode by its y_z. gate_groups, the three projections,
phase_profile, decompose_action, all_ones_report and the CLI all read
it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
import numpy as np

from .bincode import (
    BinaryCode,
    BitVector,
    NestedCodePair,
    aligned_bases,
    rref_basis,
    _limbs,
    _product_levels,
    _span_blocks,
    _unpack,
)
from .zmod import ZModule, _residue_dtype, dot_mod, howell_form, kernel_perp

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
    "groups",
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


_GROUPS = ("H", "T", "Id")


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

    One matrix of the rows 2^i * lift(v * p) for every inner basis vector
    v and every product p of i distinct outer basis vectors, i < ell,
    deduplicated and without zero rows, in deterministic order, held in
    the level's residue dtype (zmod._residue_dtype).
    """
    pair = _pair_of(pair)
    return _stabilizer_rows(pair, _product_levels([v.bits for v in pair.beta1], ell - 1, pair.n))


def _stabilizer_rows(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # v * p for every inner v and every product p in levels, not the
    # table's products that end on an inner index: the span cross-checks
    # need S_H derived independently of the direct systems; levels holds
    # the products of fewer than ell rows
    rows = {(v.bits & p, i): None
            for i, level in enumerate(levels) for p in level for v in pair.beta2}
    return _scaled([row for row in rows if row[0]], pair.n, len(levels))


def _products(levels: list[dict[int, int]], start: int, least_end: int = -1) -> list:
    # (product, r - 1) for the products of r >= start rows whose least end
    # is at least least_end
    return [(p, r - 1) for r in range(start, len(levels))
            for p, end in levels[r].items() if end >= least_end]


def _scaled(rows: list[tuple[int, int]], n: int, ell: int) -> np.ndarray:
    """Rows 2^s * lift(p) for the (p, s) pairs, s < ell, lifted in one pass
    straight into the residue dtype of ell, which holds 2^s."""
    dt = _residue_dtype(ell)
    lifted = _unpack([p for p, _ in rows], n, dt)
    lifted <<= np.array([s for _, s in rows], dtype=dt)[:, None]
    return lifted


def _transversal_rows_direct(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # inner basis at scale 1, then all distinct products of r >= 2 outer
    # basis vectors at scale 2^(r-1); levels holds products of up to ell
    return _scaled([(v.bits, 0) for v in pair.beta2] + _products(levels, 2), pair.n, len(levels) - 1)


def _identity_rows_direct(pair: NestedCodePair, levels: list[dict[int, int]]) -> np.ndarray:
    # all distinct products of r >= 1 outer basis vectors at scale 2^(r-1)
    return _scaled(_products(levels, 1), pair.n, len(levels) - 1)


def _span_mismatch(group: str, direct_length: int, refined_length: int) -> ConsistencyError:
    return ConsistencyError(
        f"{group} group: the two constraint systems disagree "
        f"(constraint span lengths {direct_length} vs {refined_length})"
    )


def _check_span(group: str, direct: ZModule, refined: ZModule) -> None:
    # over Z/2^ell two constraint spans are equal exactly when their
    # kernels are, so comparing the spans checks the two derivations of
    # the group without solving either system
    if direct != refined:
        raise _span_mismatch(group, direct.length, refined.length)


def _pair_spans(pair: NestedCodePair, ell: int) -> tuple[ZModule, ZModule, ZModule]:
    """The nested constraint spans S_H, S_T and S_Id of pair, in Howell form.

    Every system is read off one table of the distinct products of up to
    ell outer basis vectors. S_H is the span of the stabilizer
    constraints. S_T adds the products of r >= 2 outer basis vectors
    whose least end is an extension vector: a product of inner vectors
    alone is already a stabilizer constraint. S_Id adds the extension
    vectors. Each span is one Howell form of the one before and its new
    rows.

    T and Id also have direct constraint systems derived independently of
    these spans. Their spans are compared with S_T and S_Id on the
    unshifted pair; a disagreement raises ConsistencyError naming the
    group. With no logical qubits T equals H and has no separate direct
    system.
    """
    n = pair.n
    levels = _product_levels([v.bits for v in pair.beta1], ell, n)
    fixing_span = howell_form(_stabilizer_rows(pair, levels[:ell]), ell, n=n)
    extras = _scaled(_products(levels, 2, least_end=len(pair.beta2)), n, ell)
    transversal_span = howell_form(np.vstack([fixing_span.gens, extras]), ell, n=n)
    if pair.num_logical:
        direct_t = howell_form(_transversal_rows_direct(pair, levels), ell, n=n)
        _check_span("transversal", direct_t, transversal_span)
    ext = _unpack([w.bits for w in pair.beta1_ext], n, _residue_dtype(ell))
    identity_span = howell_form(np.vstack([transversal_span.gens, ext]), ell, n=n)
    _check_span("identity", howell_form(_identity_rows_direct(pair, levels), ell, n=n), identity_span)
    return fixing_span, transversal_span, identity_span


class _Groups:
    """H, T and Id of a code. A route answers for the unshifted pair:
    _restriction(name), the group as {b in span(within) : b . s = 0 for
    every row s}, with within already moved to the code (by _flip, or a
    module solved for it) or None for the whole space, and the pair's
    rows s; _length(name), _contains(name, b), _id_drop(), the least
    j >= 0 with 2^j * y_z in Id's constraint span, and _action(b), b's
    three memberships and the blocks (J, a_J) of _controlled_phases for
    b, from one pass over b.
    shifted moves every answer to a code with a Z shift: a gate relates
    to it as D b relates to the pair, so each group is D times the
    pair's, and b . y_z = 0 cuts Id by the image 2^s Z/2^ell of
    b -> b . y_z, whose length ell - s is j by duality.
    """

    y_z: BitVector | None = None

    def shifted(self, code) -> "_Groups":
        """The groups of code: anything with a y_z (a CssCode, or a CLI job
        whose code is not built yet); a bare pair has no shift."""
        moved = copy.copy(self)
        y_z = getattr(code, "y_z", None)
        moved.y_z = y_z if y_z is not None and y_z.bits else None
        return moved

    def _flip(self, rows) -> np.ndarray:
        """The rows (or a module's generators) times D = diag(1 - 2 y_z):
        negated on the support of y_z, in their own dtype, where a
        wrap-around negation is exact mod 2^ell."""
        rows = rows.gens if isinstance(rows, ZModule) else rows
        if self.y_z is None:
            return rows
        return np.where(self.y_z.to_array().astype(bool), -rows, rows)

    def module(self, name: str) -> ZModule:
        """The group's Howell form from one kernel_perp call on the route's
        _restriction, or one howell_form of within where no row constrains
        it. With a Z shift the rows are flipped, as D ker S = ker S D, and
        y_z joins Id's rows, so each module is still one Howell form."""
        within, rows = self._restriction(name)
        rows = self._flip(rows)
        if name == "Id" and self.y_z is not None:
            rows = np.vstack([rows, self.y_z.to_array().astype(rows.dtype)])
        if within is not None and not len(rows):
            return howell_form(within, self.ell, n=self.n)
        return kernel_perp(rows, self.ell, n=self.n, within=within)

    def length(self, name: str) -> int:
        drop = self._id_drop() if name == "Id" and self.y_z is not None else 0
        return self._length(name) - drop

    def contains(self, name: str, b) -> bool:
        if self.y_z is None:
            return self._contains(name, b)
        moved, phase = conjugate_by_yz(b, self.y_z, self.ell)
        return not (name == "Id" and phase) and self._contains(name, moved)

    def action(self, b) -> tuple[dict[str, bool], int, "LogicalDecomposition"]:
        """b's memberships in H, T and Id, its global phase b . y_z and the
        decomposition of its logical action (as decompose_action gives it,
        with no membership check), from one route pass _action(D b) over
        the flipped gate."""
        arr = np.asarray(b, dtype=np.int64) % (1 << self.ell)
        if arr.shape != (self.n,):
            raise ValueError("vector length mismatch")
        moved, phase = (arr, 0) if self.y_z is None else conjugate_by_yz(arr, self.y_z, self.ell)
        members, blocks = self._action(moved)
        members["Id"] = members["Id"] and not phase
        return members, phase, LogicalDecomposition(self.ell, self.num_logical, _factors(blocks))


def _new_rows(span: ZModule, smaller: ZModule) -> np.ndarray:
    """The generators of span whose pivot valuation lies below smaller's at
    that column (ell where smaller has none): with smaller they span span,
    so inside smaller's kernel they are the only constraints. A generator
    g at a pivot equal to smaller's row h there is not needed: g - h leads
    later, so by the Howell property it lies in the span of the later
    generators, each of them in smaller or kept, by induction from the
    last column. Each kept row adds at least one to the length, so there
    are at most span.length - smaller.length of them."""
    held = dict(smaller._pivots)
    keep = [i for i, (col, a) in enumerate(span._pivots) if a < held.get(col, span.ell)]
    return span.gens[keep]


class _SpanGroups(_Groups):
    """The groups of a pair, read off the three constraint spans of
    _pair_spans, cross-checked there: a group holds b exactly when b
    annihilates its span, its length is n * ell minus the span's, and only
    a returned module solves a kernel, once per shift."""

    def __init__(self, pair: NestedCodePair, ell: int):
        self.pair, self.n, self.ell, self.num_logical = pair, pair.n, ell, pair.num_logical
        self.spans = dict(zip(_GROUPS, _pair_spans(pair, ell)))
        self._solved: dict[str, ZModule] = {}

    def shifted(self, code) -> "_SpanGroups":
        moved = super().shifted(code)
        # the modules solved so far belong to this object's shift
        moved._solved = {}
        return moved

    def module(self, name: str) -> ZModule:
        if name not in self._solved:
            self._solved[name] = super().module(name)
        return self._solved[name]

    def _restriction(self, name: str):
        """From the nearest group above already solved, with the rows that
        _new_rows keeps of the span, or from the whole space with all of
        it."""
        above = {"H": (), "T": ("H",), "Id": ("T", "H")}[name]
        for start in above:
            if start in self._solved:
                return self._solved[start], _new_rows(self.spans[name], self.spans[start])
        return None, self.spans[name]

    def _length(self, name: str) -> int:
        return self.n * self.ell - self.spans[name].length

    def _contains(self, name: str, b) -> bool:
        return self.spans[name].kernel_contains(b)

    def _id_drop(self) -> int:
        y_z = self.y_z.to_array()
        return next((j for j in range(self.ell) if self.spans["Id"].contains(y_z << j)), self.ell)

    def _action(self, moved: np.ndarray):
        members = {name: self._contains(name, moved) for name in _GROUPS}
        return members, _controlled_phases(self.pair, self.ell, moved)


def groups(code, ell: int) -> _Groups:
    """The groups H, T and Id of code at level ell, as one object with
    module, length, contains and action. A MonomialCodeSpec is read off
    its exponent tables (monomial._TableGroups); a NestedCodePair or a
    CssCode off its constraint spans (_SpanGroups), a CssCode moved by
    its y_z (_Groups.shifted)."""
    from .monomial import MonomialCodeSpec, _TableGroups  # monomial imports this module

    if isinstance(code, MonomialCodeSpec):
        return _TableGroups(code, ell)
    return _SpanGroups(_pair_of(code), ell).shifted(code)


def gate_groups(code, ell: int) -> tuple[ZModule, ZModule, ZModule]:
    """The fixing, transversal and identity groups of code; on the span
    route H is one kernel on the whole space, T one inside H and Id one
    inside T, each where its span adds rows (_SpanGroups._restriction)."""
    return tuple(map(groups(code, ell).module, _GROUPS))


def fixing_group(code, ell: int) -> ZModule:
    """Exponent vectors whose gate preserves the code space."""
    return groups(code, ell).module("H")


def transversal_group(code, ell: int) -> ZModule:
    """Exponent vectors acting as a tensor product on the logical qubits;
    with no logical qubits every code-preserving gate qualifies."""
    return groups(code, ell).module("T")


def identity_group(code, ell: int) -> ZModule:
    """Exponent vectors acting as the exact identity on the code space:
    for unshifted codes this depends only on the outer code, and a nonzero
    Z shift also forces a zero phase on the shift itself."""
    return groups(code, ell).module("Id")


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


def _subsets(K: int, ell: int):
    """Rows of the index tuples J with |J| = h, lexicographic, for h = 1..
    min(K, ell): each level extends each tuple by every larger index."""
    index = np.arange(K)[:, None]
    for h in range(1, min(K, ell) + 1):
        if h > 1:
            parent, nxt = np.nonzero(np.arange(K) > index[:, -1:])
            index = np.concatenate((index[parent], nxt[:, None]), axis=1)
        yield index


def _controlled_phases(pair: NestedCodePair, ell: int, eff: np.ndarray):
    """Blocks (J, a_J), |J| = 1..min(K, ell), lexicographic within a level:
    rows of index tuples J and a_J = (-2)^(|J|-1) (eff . prod_J w_j) mod
    2^ell, eff being b mod 2^ell with its signs flipped on y_z. As x xor y
    = x + y - 2xy exactly over Z, the phase of coset v relative to coset 0
    is the sum of the a_J over J inside v, for every b. Level 1 is one
    int64 matmul of the extension rows with eff, a later block one of
    _PRODUCT_BLOCK 0/1 entries: sums stay below n * 2^ell, exact in int64.
    """
    N = 1 << ell
    ext = _unpack([w.bits for w in pair.beta1_ext], pair.n)
    for index in _subsets(pair.num_logical, ell):
        h = index.shape[1]
        if h == 1:
            yield index, ext @ eff % N
            continue
        step = max(1, _PRODUCT_BLOCK // (h * pair.n))
        for start in range(0, len(index), step):
            block = index[start : start + step]
            yield block, ext[block].min(axis=1) @ eff % N * pow(-2, h - 1, N) % N


def _factors(blocks) -> tuple["ControlledFactor", ...]:
    """The factors of the nonzero a_J of blocks (J, a_J), J made 1-based."""
    return tuple(ControlledFactor(tuple(J), a) for index, coeffs in blocks
                 for J, a in zip((index + 1).tolist(), coeffs.tolist()) if a)


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


def phase_profile(code, ell: int, b) -> PhaseProfile:
    """Phases of the cosets under U(b) relative to coset 0, and b . y_z:
    the phase table of b's decomposition (_Groups.action), with no 2^K x n
    label table."""
    members, phase, decomp = groups(code, ell).action(b)
    phases = decomp.phase_table().astype(np.int64)
    return PhaseProfile(ell, decomp.num_logical, phases, phase, members["H"])


@dataclass(frozen=True)
class ControlledFactor:
    """One multiply-controlled phase factor: qubits are 1-based, sorted."""

    qubits: tuple[int, ...]
    phase: int


def _subset_sums(a: np.ndarray, m: int, sign: int = 1) -> np.ndarray:
    """In place, a[v] becomes the sum of a[i] over the masks i inside v
    (the zeta transform), or with sign -1 its Moebius inverse, the sum of
    (-1)^(|v| - |i|) a[i], over the first axis of a C-contiguous array, so
    a (2^m, r) array has r columns transformed at once. One vectorised
    step per variable (Yates 1937): the high m - m // 2 index bits on the
    natural layout, then the low m // 2 after one transposed copy brings
    them to the front, which is written back, so every step runs over
    blocks of at least 2^(m // 2) rows. Only additions and subtractions
    run, so in an unsigned dtype of width w the result wraps mod 2^w and
    stays exact mod any 2^ell with ell <= w: reduction mod 2^ell is a ring
    map from Z/2^w (as in zmod)."""
    op = np.add if sign == 1 else np.subtract
    low = m // 2

    def steps(x: np.ndarray, bits: range, top: int) -> None:
        for k in bits:
            view = x.reshape(1 << (top - 1 - k), 2, -1)
            op(view[:, 1], view[:, 0], out=view[:, 1])

    steps(a, range(low, m), m)
    grid = a.reshape(1 << (m - low), 1 << low, -1)
    swapped = grid.transpose(1, 0, 2).copy()
    steps(swapped, range(low), low)
    grid[...] = swapped.transpose(1, 0, 2)
    return a


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

    def phase_table(self) -> np.ndarray:
        """phase_at of every basis state, indexed by its bitmask, as
        residues in the narrowest unsigned dtype of width w >= ell
        (zmod._residue_dtype).

        Each factor's phase sits at the mask of its qubits, and one
        subset-sum pass (_subset_sums) adds it to every mask containing
        that one. The sums wrap mod 2^w, and reduction mod 2^ell is a ring
        map from Z/2^w, so masking with 2^ell - 1 leaves the exact phases.
        """
        K = self.num_logical
        if K > 20:
            raise ValueError("profile table limited to 20 logical qubits")
        dt = _residue_dtype(self.ell)
        phases = np.zeros(1 << K, dtype=dt)
        for f in self.factors:
            phases[sum(1 << (q - 1) for q in f.qubits)] = f.phase
        _subset_sums(phases, K)
        phases &= dt((1 << self.ell) - 1)
        return phases


def decompose_action(code, ell: int, b) -> LogicalDecomposition:
    """Controlled-phase decomposition of the logical action of U(b), which
    must fix the code space (_Groups.action). The coefficient on the
    factor controlled by J is (-2)^(|J|-1) * (b . lift of the product of
    the chosen extension vectors), so subsets larger than the level
    contribute nothing; on a code with a Z shift the flipped vector is
    decomposed, which gives the phases relative to coset 0."""
    members, _, decomp = groups(code, ell).action(b)
    if not members["H"]:
        raise ValueError("gate does not preserve the code space")
    return decomp


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
    sum of the extension weights mod 2^ell. Walks the outer code as
    packed words in blocks, and the expected weights in the same blocks
    by the same doubling on the row weights (zero for inner rows).
    """
    N = 1 << ell
    words = _span_blocks(_limbs([v.bits for v in pair.beta1], pair.n))
    row_weights = [0] * len(pair.beta2) + [w.weight for w in pair.beta1_ext]
    expected = _span_blocks(np.array(row_weights, dtype=np.int64)[:, None], np.add)
    divisible = True
    coset_rule = True
    for (_, block), (_, sums) in zip(words, expected):
        weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
        if (weights % N).any():
            divisible = False
        if ((weights - sums[:, 0]) % N).any():
            coset_rule = False
        if not divisible and not coset_rule:
            break
    return divisible, coset_rule


def all_ones_report(code, ell: int) -> AllOnesReport:
    """Classify the uniform gate and cross-check the weight corollaries.

    The weight corollaries are statements about the underlying nested
    pair, so any X/Z characters are ignored, and the memberships are read
    off groups(pair). Raises ConsistencyError if a
    membership contradicts the corresponding weight scan, or if
    membership in the fixing group does not force the inner code into the
    dual of the (ell-1)-th power of the outer code, a parity rule read off
    products of outer basis rows with no elimination (see _all_ones).
    """
    pair = _pair_of(code)
    ones = np.ones(pair.n, dtype=np.int64)
    found = groups(pair, ell)
    return _all_ones(pair, ell, [found.contains(name, ones) for name in _GROUPS])


def _all_ones(pair: NestedCodePair, ell: int, memberships) -> AllOnesReport:
    """all_ones_report of pair, given the uniform gate's memberships in
    the pair's H, T and Id. The inner code lies in the power's dual exactly
    when each inner basis row v has even overlap with each product of
    r < ell distinct outer basis rows, which span the power for any basis;
    all of them are read off one _product_levels table. The empty product
    (r = 0), the all-ones word, is the whole rule at ell = 1 and adds
    nothing at ell >= 2: v, orthogonal to the outer code that holds it, is
    orthogonal to itself and so has even weight."""
    in_h, in_t, in_id = memberships

    levels = _product_levels([v.bits for v in pair.beta1], ell - 1, pair.n)
    products = [p for level in levels for p in level]
    containment_ok = not any((v.bits & p).bit_count() & 1 for v in pair.beta2 for p in products)
    if in_h and not containment_ok:
        raise ConsistencyError("uniform gate fixes the code but the power-dual containment fails")

    if len(pair.beta1) <= _SCAN_CAP:
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
