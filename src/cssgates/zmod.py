"""Finitely generated submodules of (Z/2^ell)^n in Howell canonical form.

Over Z/2^ell every submodule of Z_N^n has a unique Howell-form generating
matrix: rows in echelon form with strictly increasing pivot columns, each
pivot entry an exact power of two, entries above a pivot reduced modulo it,
and the row span closed in the Howell sense (any span element whose leading
column is at or after pivot j lies in the span of rows j onward; the
annihilator rows inserted during elimination guarantee this). Uniqueness is
what makes module equality a plain matrix comparison.

The module "length" lambda is the sum over pivot entries 2^a of (ell - a);
the module has exactly 2^lambda elements and satisfies
lambda(M) + lambda(M_perp) = n * ell for the dual under the mod-N dot.

The same closure gives annihilators directly: kernel_perp reads the b in
the span of W with b . s = 0 for every row s of S off one Howell form of
the augmented matrix [W S^T | W], as the rows that vanish on the first
block; W = I_n gives M_perp from [S^T | I_n] (Howell, "Spans in the
module (Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for
linear algebra modulo N", 1998). A smaller W solves a group inside one
already found.

Every Howell form of arbitrary rows (not the echelon monomial closed
forms: monomial._ev_howell) goes through one helper, _howell, which takes
the columns in order and returns the rows with the pivots it placed. A
column that only the pivot row touches costs no gather, broadcast or
scatter: the row is moved out, scaled and zeroed in place.
Back-substitution follows in a pass of its own.

Elimination holds each residue x left-aligned, as x * 2^(w - ell) in the
narrowest unsigned dtype of width w >= ell (uint8, uint16 or uint32;
MAX_LEVEL = 30). Wrap-around mod 2^w of aligned values is then reduction
mod 2^ell, so no step masks; reduction mod 2^ell is a ring map from
Z/2^w, so the same dtype also holds exact residues mod 2^ell under
wrap-around products and sums. Generators are held as residues in that
dtype, on which NumPy 2 arithmetic wraps mod 2^w (or raises
OverflowError for a Python int that does not fit), so callers widen to
int64 first. Mod-before-sum dot products are exact in int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "ZModule",
    "howell_form",
    "kernel_perp",
    "module_sum",
    "scale_lift",
    "dot_mod",
    "zvector_from_text",
    "zvector_to_text",
]

MAX_LEVEL = 30


def _check_level(ell: int) -> int:
    """The modulus 2^ell of a level, which must be an integer in [1, MAX_LEVEL]."""
    if not isinstance(ell, (int, np.integer)) or not 1 <= ell <= MAX_LEVEL:
        raise ValueError(f"level must be an integer in [1, {MAX_LEVEL}]")
    return 1 << ell


def _v2(x: int) -> int:
    """2-adic valuation of a nonzero int."""
    return (x & -x).bit_length() - 1


def _as_matrix(rows, ell: int, n: int | None) -> np.ndarray:
    """Validated matrix of residues: an array in the level's residue dtype
    as it is (_howell reduces it), other rows as int64 reduced mod 2^ell."""
    # an ndarray is taken as it is, other iterables of rows are listed
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    elif rows.dtype == _residue_dtype(ell) and rows.ndim == 2 and n in (None, rows.shape[1]):
        return rows
    mat = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if mat.size == 0:
        if n is None:
            raise ValueError("ambient length required for an empty row set")
        return np.zeros((0, n), dtype=np.int64)
    if mat.ndim != 2:
        raise ValueError("rows must be one-dimensional")
    if n is not None and mat.shape[1] != n:
        raise ValueError("declared length disagrees with rows")
    # the mask equals % 2^ell on two's complement int64, negatives included
    return mat & ((1 << ell) - 1)


def _residue_dtype(ell: int):
    """The narrowest unsigned dtype that holds residues mod 2^ell."""
    return np.uint8 if ell <= 8 else np.uint16 if ell <= 16 else np.uint32


def _howell(mat: np.ndarray, ell: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Unique Howell-form generator matrix for the row span of mat, as
    residues, and its pivots: the (column, valuation) of each row.

    Residues are held left-aligned, x * 2^(w - ell) in the width-w dtype,
    so wrap-around mod 2^w is reduction mod 2^ell and no step masks.
    Column by column over all pending rows: the touching row of least
    2-adic valuation a is the pivot, written straight into the output
    and scaled there by a unit to exactly 2^a. When the pivot row alone
    touches the column it is moved out and zeroed in place; otherwise
    every touching row (the pivot's own too) is reduced by it in one
    broadcast over columns col onward. Rows that vanish stay zero and
    never touch again. When a > 0 the annihilator row 2^(ell-a) * pivot,
    zero at col, joins the pending rows. Back-substitution then reduces
    the entries above each pivot, one broadcast per pivot, in a pass of
    its own: done as each pivot is placed, it shares the cache with the
    pending rows, and the [S^T | I_n] kernels at n = 2048 took a quarter
    longer. A row spans at most 2^ell elements and each output row adds
    at least one to the length, so m rows give at most m * ell pivots,
    and as many annihilator rows.
    """
    m, n = mat.shape
    dt = _residue_dtype(ell)
    N = 1 << ell
    k = 8 * np.dtype(dt).itemsize - ell
    cap = min(n, m * ell)
    # pending rows, with room for one annihilator row per pivot
    buf = np.zeros((m + cap, n), dtype=dt)
    buf[:m] = mat
    buf[:m] <<= dt(k)
    free = m
    out = np.zeros((cap, n), dtype=dt)
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        touch = buf[:free, col].nonzero()[0]
        if not touch.size:
            continue
        piv = out[len(pivots), col:]
        if touch.size == 1:
            piv[:] = buf[touch[0], col:]
            buf[touch[0], col:] = 0
        else:
            block = buf[touch, col:]
            lead = block[:, 0]
            low = lead & -lead  # 2^(valuation + k), by wrap-around negation
            piv[:] = block[low.argmin()]
        a = _v2(int(piv[0])) - k
        odd = int(piv[0]) >> (a + k)
        if odd != 1:
            # scaling by a unit keeps the span and makes the pivot exactly 2^a
            piv *= dt(pow(odd, -1, N))
        if touch.size > 1:
            block -= (lead >> dt(a + k))[:, None] * piv
            buf[touch, col:] = block
        if a:
            # annihilator row: the part of the span invisible at this column
            np.left_shift(piv, dt(ell - a), out=buf[free, col:])
            free += 1
        pivots.append((col, a))
    rows = out[: len(pivots)]
    for i, (col, a) in enumerate(pivots):
        q = rows[:i, col] >> dt(a + k)
        above = q.nonzero()[0]
        if above.size:
            rows[above, col:] -= q[above, None] * rows[i, col:]
    rows >>= dt(k)
    return rows, tuple(pivots)


class ZModule:
    """Submodule of (Z/2^ell)^n, carried by its Howell-form generators.

    Immutable; howell_form and kernel_perp build one from any rows. gens
    holds residues in _residue_dtype(ell): contains wraps q * row mod 2^w,
    exact mod 2^ell, and kernel_contains and elements sum in int64.
    pivots, the (column, valuation) of each row, are read off gens unless
    given, as _howell gives them.
    """

    __slots__ = ("n", "ell", "gens", "_pivots")

    def __init__(self, n: int, ell: int, gens: np.ndarray, pivots: tuple | None = None):
        _check_level(ell)
        gens = np.asarray(gens, dtype=_residue_dtype(ell))
        gens.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "gens", gens)
        if pivots is None:
            pivots = ()
            if gens.size:
                # every generator row is nonzero, so argmax finds its leading column
                cols = (gens != 0).argmax(axis=1)
                lead = gens[np.arange(len(cols)), cols].tolist()
                pivots = tuple(zip(cols.tolist(), map(_v2, lead)))
        object.__setattr__(self, "_pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("ZModule is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZModule):
            return NotImplemented
        return (
            self.n == other.n
            and self.ell == other.ell
            and bool(np.array_equal(self.gens, other.gens))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.ell, self.gens.tobytes()))

    def __iter__(self):
        """The generator rows, so a module stands wherever rows do."""
        return iter(self.gens)

    def __repr__(self) -> str:
        return f"ZModule(n={self.n}, ell={self.ell}, rank={len(self.gens)}, length={self.length})"

    @property
    def modulus(self) -> int:
        return 1 << self.ell

    @property
    def length(self) -> int:
        """log2 of the number of elements."""
        return sum(self.ell - a for _, a in self._pivots)

    def contains(self, v) -> bool:
        N = self.modulus
        vec = np.asarray(v, dtype=np.int64) % N
        if vec.shape != (self.n,):
            raise ValueError("vector length mismatch")
        for (col, a), row in zip(self._pivots, self.gens):
            q = int(vec[col]) >> a
            if q:
                vec = (vec - q * row) % N
        return not vec.any()

    def kernel_contains(self, v) -> bool:
        """Whether v . g = 0 mod 2^ell for every generator g: membership in
        the annihilator, without solving for it. Products are reduced
        before each row is summed, so a row sum stays below n * 2^ell, exact
        in int64 for n < 2^33."""
        N = self.modulus
        vec = np.asarray(v, dtype=np.int64) % N
        if vec.shape != (self.n,):
            raise ValueError("vector length mismatch")
        return not ((self.gens * vec % N).sum(axis=1) % N).any()

    def contains_module(self, other: "ZModule") -> bool:
        if (other.n, other.ell) != (self.n, self.ell):
            raise ValueError("modules live in different ambient spaces")
        return all(self.contains(row) for row in other.gens)

    def elements(self, limit: int = 1 << 22) -> np.ndarray:
        """All 2^length elements, one per row, deterministic order.

        Rows are generated by odometer over the canonical coefficient
        ranges [0, 2^(ell - a_j)), last generator fastest.
        """
        N = self.modulus
        counts = [1 << (self.ell - a) for _, a in self._pivots]
        total = 1 << self.length
        if total > limit:
            raise ValueError(f"module has {total} elements, above the limit {limit}")
        out = np.zeros((total, self.n), dtype=np.int64)
        if not counts:
            return out
        reps = total
        for (count, row) in zip(counts, self.gens):
            reps //= count
            coeff = np.tile(np.repeat(np.arange(count, dtype=np.int64), reps), total // (count * reps))
            out = (out + coeff[:, None] * row) % N
        return out


def howell_form(rows, ell: int, *, n: int | None = None) -> ZModule:
    """Canonicalize a generating set. Idempotent and order-independent; a
    ZModule of level ell is already canonical and comes back as it is."""
    _check_level(ell)
    if isinstance(rows, ZModule) and rows.ell == ell and n in (None, rows.n):
        return rows
    mat = _as_matrix(rows, ell, n)
    return ZModule(mat.shape[1], ell, *_howell(mat, ell))


def module_sum(a: ZModule, b: ZModule) -> ZModule:
    if (a.n, a.ell) != (b.n, b.ell):
        raise ValueError("modules live in different ambient spaces")
    stacked = np.vstack([a.gens, b.gens]) if len(a.gens) or len(b.gens) else np.zeros((0, a.n), dtype=np.int64)
    return ZModule(a.n, a.ell, *_howell(stacked, a.ell))


def scale_lift(mod: ZModule, to_ell: int) -> ZModule:
    """The module 2M inside (Z/2^(ell+1))^n.

    Doubling a Howell-form matrix is again Howell form one level up (every
    pivot and every reduction bound doubles), so no reduction is needed and
    the length is preserved; rows widen first, as 8 -> 9 crosses a dtype.
    """
    _check_level(to_ell)
    if to_ell != mod.ell + 1:
        raise ValueError("lift goes up exactly one level")
    pivots = tuple((col, a + 1) for col, a in mod._pivots)
    return ZModule(mod.n, to_ell, mod.gens.astype(_residue_dtype(to_ell)) << 1, pivots)


def dot_mod(u, v, ell: int) -> int:
    """Exact dot product of residue vectors mod 2^ell.

    Products are reduced before summing, so int64 never overflows for any
    level up to MAX_LEVEL and any practical n.
    """
    _check_level(ell)
    N = 1 << ell
    a = np.asarray(u, dtype=np.int64)
    b = np.asarray(v, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("vectors must share one dimension")
    return int((a * b % N).sum() % N)


def _module_rows(rows, ell: int, n: int | None) -> np.ndarray:
    """The generators of a ZModule of this ambient space, or rows as
    _as_matrix takes them."""
    if isinstance(rows, ZModule):
        if rows.ell != ell or n not in (None, rows.n):
            raise ValueError("module lives in a different ambient space")
        return rows.gens
    return _as_matrix(rows, ell, n)


def kernel_perp(rows, ell: int, *, n: int | None = None, within=None) -> ZModule:
    """All b in span(within) with b . s = 0 mod 2^ell for every constraint
    row s; within defaults to the whole space (Z/2^ell)^n.

    rows and within may be ZModules or rows. The constraint rows S are
    any generating set of their span: rows that outnumber n are
    canonicalised once first, so the augmented matrix below is at most
    2n wide; fewer rows (a ZModule's generators, a flipped Howell form)
    are taken as they are. within needs no canonical form either. With W
    the rows of within, row i of [W S^T | W] is (w_i . S, w_i), so its row
    span is {(S x, x) : x in span(W)}, and the span elements whose first
    r entries vanish are exactly (0, x) for the x sought. By the Howell
    property, every span element whose leading column is r or later lies
    in the span of the rows pivoted there. So the rows of the Howell form
    of [W S^T | W] that are zero on the first r columns, a suffix of it,
    cut to their last n columns, generate the answer; they are echelon
    with power-of-two pivots reduced above, so they are already its
    Howell form, whichever S and W were given. The whole space is W =
    I_n, where [S^T | I_n] is built with no product; otherwise W S^T is
    one product in the residue dtype, which wraps mod 2^w and so is exact
    mod 2^ell at every level.
    """
    _check_level(ell)
    span = _module_rows(rows, ell, n)
    n = span.shape[1]
    if len(span) > n:
        span = _howell(span, ell)[0]
    dt, r = _residue_dtype(ell), len(span)
    if within is None:
        aug = np.zeros((n, r + n), dtype=dt)
        aug[:, :r] = span.T
        aug[np.arange(n), r + np.arange(n)] = 1
    else:
        basis = _module_rows(within, ell, n).astype(dt, copy=False)
        aug = np.hstack([np.einsum("ik,jk->ij", basis, span.astype(dt, copy=False)), basis])
    gens, pivots = _howell(aug, ell)
    first = sum(col < r for col, _ in pivots)
    return ZModule(n, ell, gens[first:, r:].copy(), tuple((col - r, a) for col, a in pivots[first:]))


def zvector_to_text(v) -> str:
    """Comma-separated decimal residues, e.g. '0,2,1'."""
    arr = np.asarray(v, dtype=np.int64)
    return ",".join(str(int(x)) for x in arr)


def zvector_from_text(text: str, ell: int) -> np.ndarray:
    _check_level(ell)
    N = 1 << ell
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty residue vector")
    out = np.zeros(len(parts), dtype=np.int64)
    for i, part in enumerate(parts):
        try:
            value = int(part.strip(), 10)
        except ValueError:
            raise ValueError(f"not a decimal residue at position {i + 1}: {part!r}")
        if not 0 <= value < N:
            raise ValueError(f"residue out of range at position {i + 1}: {value}")
        out[i] = value
    return out
