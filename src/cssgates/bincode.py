"""Bit-packed GF(2) linear algebra: vectors, codes, duals, star products.

Vectors are stored as python ints (coordinate 1 = least significant bit),
which keeps row reduction allocation-free and makes componentwise products
plain integer ANDs. Rows are lifted to 0/1 integer arrays only at the
end, many at a time, by np.unpackbits over their little-endian bytes.

Many rows at once are arrays of 64-bit limbs (_limbs). Every codeword of
a span comes from one enumerator, _span_words, by XOR doubling, or from
_span_blocks in blocks of 2^16 words: the weight scan in gates and every
walk of the oracle read codewords through it.

Products of distinct basis rows come from one breadth-first table,
_product_levels: level r maps each distinct product of r distinct rows
to the least row index that ends such a product. star_family and
schur_power read it here, and gates reads every constraint system off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BinaryCode",
    "NestedCodePair",
    "rref_basis",
    "dual_basis",
    "star_family",
    "schur_power",
    "aligned_bases",
]


@dataclass(frozen=True, order=True)
class BitVector:
    """Length-n vector over GF(2) packed into an int.

    Coordinate 1 is the least significant bit and the leftmost character of
    the text form, so ``from_string("110")`` has coordinates (1, 1, 0).
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        # plain ints only: numpy integers would overflow at 64 coordinates
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "bits", int(self.bits))
        if self.n <= 0:
            raise ValueError("BitVector length must be positive")
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError(f"bit pattern does not fit in {self.n} coordinates")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    @classmethod
    def from_ints(cls, values: Sequence[int]) -> "BitVector":
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= int(v) << i
        return cls(len(values), bits)

    @classmethod
    def all_ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.n))

    def to_array(self) -> np.ndarray:
        """The 0/1 entries as int64, i.e. the set-map lift used for Z_N dots."""
        raw = np.frombuffer(self.bits.to_bytes((self.n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little").astype(np.int64)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def pivot(self) -> int | None:
        """0-based index of the first nonzero coordinate, None if zero."""
        if self.bits == 0:
            return None
        return (self.bits & -self.bits).bit_length() - 1

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.bits >> i & 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits & other.bits)

    def __str__(self) -> str:
        return self.to_string()


_BLOCK_BITS = 16


def _limbs(masks: Sequence[int], n: int) -> np.ndarray:
    """Int-packed rows as a len(masks) x ceil(n/64) array of little-endian
    uint64 limbs: coordinate 64j + i + 1 is bit i of limb j."""
    width = 8 * ((n + 63) // 64)
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, "<u8").reshape(len(masks), width // 8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries packed into limbs, as _limbs lays them out."""
    n = bits.shape[1]
    raw = np.zeros((len(bits), 8 * ((n + 63) // 64)), dtype=np.uint8)
    raw[:, : (n + 7) // 8] = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return raw.view("<u8")


def _lift(words: np.ndarray, n: int, dtype=np.int64) -> np.ndarray:
    """Limb rows lifted to a len(words) x n matrix of 0/1 (int64 unless
    another dtype is named)."""
    raw = words.view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").astype(dtype, copy=False)


def _unpack(masks: Sequence[int], n: int, dtype=np.int64) -> np.ndarray:
    """Int-packed rows lifted to a len(masks) x n matrix of 0/1 (int64
    unless another dtype is named)."""
    return _lift(_limbs(masks, n), n, dtype)


def _span_words(rows: np.ndarray, op=np.bitwise_xor, first=None) -> np.ndarray:
    """Every op-sum of the rows of a (k, L) array, as a (2^k, L) array.

    Built by doubling: index v holds first (zero by default) plus the rows
    on the set bits of v, row 0 lowest. With XOR on limb rows these are
    the codewords of the span, shifted by first; with np.add on integer
    rows, the subset sums.
    """
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=rows.dtype)
    if first is not None:
        out[0] = first
    for i, row in enumerate(rows):
        bit = 1 << i
        op(out[:bit], row, out=out[bit : 2 * bit])
    return out


def _span_blocks(rows: np.ndarray, op=np.bitwise_xor, first=None):
    """_span_words(rows, op, first) as consecutive (start, block) pairs of
    2^16 rows (fewer when k < 16), so the working set stays two blocks
    whatever k is. The table of the low 16 rows is built once; each block
    adds to it the sum of one combination of the high rows."""
    table = _span_words(rows[:_BLOCK_BITS], op, first)
    high = rows[_BLOCK_BITS:]
    yield 0, table
    for h in range(1, 1 << len(high)):
        picked = high[(h >> np.arange(len(high))) & 1 == 1]
        yield h << _BLOCK_BITS, op(table, op.reduce(picked, axis=0))


def _product_levels(masks: Sequence[int], depth: int, n: int) -> list[dict[int, int]]:
    """Distinct products of r distinct rows, for r = 0..depth.

    Level r maps each product of r distinct rows of masks (level 0 holds
    the all-ones word, ended by index -1) to the least index that ends
    such a product, i.e. the least largest index over the r-subsets that
    give it. Level r extends each level r-1 product only by rows of
    higher index than its least end: every r-subset arises from its
    (r-1)-prefix, whose least end is at most the prefix's largest index,
    and every extension is an r-subset, so each level is exact and keeps
    its least ends. Order is deterministic for a fixed input order.
    """
    levels = [{(1 << n) - 1: -1}]
    for _ in range(depth):
        level: dict[int, int] = {}
        for p, end in levels[-1].items():
            for j in range(end + 1, len(masks)):
                q = p & masks[j]
                if level.get(q, j) >= j:
                    level[q] = j
        levels.append(level)
    return levels


def _rref(masks: Iterable[int]) -> list[int]:
    """Reduced row echelon form of int-packed rows, pivots ascending."""
    pivots: dict[int, int] = {}
    for m in masks:
        while m:
            low = m & -m
            if low in pivots:
                m ^= pivots[low]
            else:
                pivots[low] = m
                break
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        for other_low in pivots:
            if other_low != low and pivots[other_low] & low:
                pivots[other_low] ^= row
    return [pivots[low] for low in sorted(pivots)]


def _reduce_mod(bits: int, rows: Sequence[int]) -> int:
    """Remainder of bits after elimination against echelon rows."""
    for row in rows:
        low = row & -row
        if bits & low:
            bits ^= row
    return bits


@dataclass(frozen=True)
class BinaryCode:
    """A linear code held by its reduced row echelon basis.

    The RREF basis with strictly increasing pivots is unique, so code
    equality is plain dataclass equality. Construct through rref_basis
    unless the rows are already canonical.
    """

    n: int
    basis: tuple[BitVector, ...] = ()

    def __post_init__(self) -> None:
        if any(row.n != self.n for row in self.basis):
            raise ValueError("basis row length differs from code length")
        leads = [0] + [row.bits & -row.bits for row in self.basis]
        if not all(a < b for a, b in zip(leads, leads[1:])):
            raise ValueError("basis rows are not in reduced echelon form: a zero row or pivots out of order")
        pivots = sum(leads)
        if any(row.bits & pivots != lead for row, lead in zip(self.basis, leads[1:])):
            raise ValueError("basis rows are not in reduced echelon form: a pivot not cleared")

    @property
    def k(self) -> int:
        return len(self.basis)

    def contains(self, v: BitVector) -> bool:
        if v.n != self.n:
            raise ValueError("length mismatch")
        return _reduce_mod(v.bits, [row.bits for row in self.basis]) == 0

    def codeword(self, coeff_mask: int) -> BitVector:
        """The combination of basis rows selected by coeff_mask bits."""
        bits = 0
        for i, row in enumerate(self.basis):
            if coeff_mask >> i & 1:
                bits ^= row.bits
        return BitVector(self.n, bits)


def rref_basis(rows: Sequence[BitVector], *, n: int | None = None) -> BinaryCode:
    """Span of the rows as a canonical BinaryCode.

    Idempotent: applying it to a code's basis returns an equal code. The
    ambient length is taken from the rows, or from n for an empty list.
    """
    if rows:
        length = rows[0].n
        if n is not None and n != length:
            raise ValueError("declared length disagrees with rows")
    elif n is None:
        raise ValueError("ambient length required for an empty generating set")
    else:
        length = n
    masks = []
    for row in rows:
        if row.n != length:
            raise ValueError("rows of mixed lengths")
        masks.append(row.bits)
    return BinaryCode(length, tuple(BitVector(length, m) for m in _rref(masks)))


def dual_basis(code: BinaryCode) -> BinaryCode:
    """The dual code, dimension n - k. Applying twice returns the input."""
    pivot_rows = {row.pivot: row.bits for row in code.basis}
    gens = []
    for f in range(code.n):
        if f in pivot_rows:
            continue
        bits = 1 << f
        for p, row in pivot_rows.items():
            if row >> f & 1:
                bits |= 1 << p
        gens.append(BitVector(code.n, bits))
    return rref_basis(gens, n=code.n)


def star_family(
    basis: Sequence[BitVector], r: int, *, n: int | None = None
) -> tuple[BitVector, ...]:
    """Products of r distinct elements of basis, deduplicated.

    r = 0 yields the all-ones vector; r beyond the family size yields
    nothing. The products are level r of _product_levels, so the order is
    deterministic for a fixed input order.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if n is None:
        if not basis:
            raise ValueError("ambient length required for an empty family")
        n = basis[0].n
    if r > len(basis):
        return ()
    level = _product_levels([v.bits for v in basis], r, n)[r]
    return tuple(BitVector(n, b) for b in level)


def schur_power(code: BinaryCode, r: int) -> BinaryCode:
    """Span of all r-fold componentwise products of codewords.

    Star products distribute over XOR coordinatewise, so products of basis
    elements generate the span; repetition collapses (v star v = v), which
    reduces the generating set to products of between 1 and r distinct
    basis rows.
    """
    if r < 1:
        raise ValueError("power must be at least 1")
    levels = _product_levels([v.bits for v in code.basis], min(r, code.k), code.n)
    return rref_basis([BitVector(code.n, p) for level in levels[1:] for p in level], n=code.n)


@dataclass(frozen=True)
class NestedCodePair:
    """Nested codes C2 within C1, held by a shared aligned basis.

    beta2 is an ordered basis of C2 and beta1_ext extends it to a basis of
    C1; the K = k1 - k2 extension rows are the logical coset
    representatives, in order. Rows need not be in echelon form (the
    monomial constructions carry evaluation vectors verbatim), only
    independent: nonzero rows with distinct lowest set bits are echelon,
    and so independent, and only other row sets are eliminated. The
    canonical codes c1 and c2 are built on first use.
    """

    n: int
    beta2: tuple[BitVector, ...]
    beta1_ext: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        masks = []
        for row in self.beta1:
            if row.n != self.n:
                raise ValueError("basis row length differs from code length")
            masks.append(row.bits)
        leads = {m & -m for m in masks} - {0}
        if len(leads) < len(masks) and len(_rref(masks)) < len(masks):
            raise ValueError("basis rows are not independent")

    @property
    def num_logical(self) -> int:
        return len(self.beta1_ext)

    @property
    def beta1(self) -> tuple[BitVector, ...]:
        return self.beta2 + self.beta1_ext

    @cached_property
    def c1(self) -> BinaryCode:
        return rref_basis(self.beta1, n=self.n)

    @cached_property
    def c2(self) -> BinaryCode:
        return rref_basis(self.beta2, n=self.n)


def aligned_bases(c1: BinaryCode, c2: BinaryCode) -> NestedCodePair:
    """Deterministic aligned bases for a nested pair.

    beta2 is the RREF basis of C2; the extension is obtained by reducing
    C1's basis rows modulo beta2 and row-reducing the nonzero remainders,
    so its rows come out sorted by pivot, every pivot outside beta2's.
    Raises if C2 is not inside C1.
    """
    if c1.n != c2.n:
        raise ValueError("code lengths differ")
    for row in c2.basis:
        if not c1.contains(row):
            raise ValueError("inner code is not contained in the outer code")
    inner = [row.bits for row in c2.basis]
    ext = _rref(_reduce_mod(row.bits, inner) for row in c1.basis)
    return NestedCodePair(c1.n, c2.basis, tuple(BitVector(c1.n, bits) for bits in ext))
