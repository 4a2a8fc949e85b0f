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

The same closure gives the annihilator directly: kernel_perp reads M_perp
off one Howell form of the augmented matrix [S^T | I_n], where S is the
Howell form of M, as the rows that vanish on the S^T block (Howell,
"Spans in the module (Z_m)^s", 1986; Storjohann and Mulders, "Fast
algorithms for linear algebra modulo N", 1998).

Every Howell form of arbitrary rows (not the echelon monomial closed
forms: monomial._ev_howell) goes through one helper, _howell, which takes
the columns in order. A column that only the pivot row touches costs no
gather, broadcast or scatter: the row is copied out, scaled and zeroed
in place. Back-substitution follows in a pass of its own.

Elimination holds the residues in the narrowest unsigned dtype of width
w >= ell (uint8, uint16 or uint32; MAX_LEVEL = 30) and masks with
2^ell - 1. Reduction mod 2^ell is a ring map from Z/2^w, so wrap-around
arithmetic mod 2^w followed by the mask is exact mod 2^ell; generators are
held as residues in that dtype, on which NumPy 2 arithmetic wraps mod 2^w
(or raises OverflowError for a Python int that does not fit), so callers
widen to int64 first. Mod-before-sum dot products are exact in int64.
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
    """Validated int64 matrix of residues, reduced mod 2^ell."""
    # an ndarray is taken as it is, other iterables of rows are listed
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
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


def _howell(mat: np.ndarray, ell: int) -> np.ndarray:
    """Unique Howell-form generator matrix for the row span of mat, as residues.

    Column by column over all pending rows: the touching row of least
    2-adic valuation a is the pivot, scaled by a unit to exactly 2^a.
    When the pivot row alone touches the column it is copied out and
    zeroed in place; otherwise every touching row (the pivot's own copy
    too) is reduced by it in one broadcast over columns col onward. Rows
    that vanish stay zero and never touch again. When a > 0 the
    annihilator row 2^(ell-a) * pivot, zero at col, joins the pending
    rows. Back-substitution then reduces the entries above each pivot,
    one broadcast per pivot, in a pass of its own: done as each pivot is
    placed, it shares the cache with the pending rows, and the
    [S^T | I_n] kernels at n = 2048 took a quarter longer.
    """
    m, n = mat.shape
    dt = _residue_dtype(ell)
    N = 1 << ell
    mask = dt(N - 1)
    # pending rows, with room for one annihilator row per pivot column
    buf = np.zeros((m + n, n), dtype=dt)
    buf[:m] = mat
    free = m
    placed: list[tuple[int, int, np.ndarray]] = []
    for col in range(n):
        touch = buf[:free, col].nonzero()[0]
        if not touch.size:
            continue
        if touch.size == 1:
            piv = buf[touch[0], col:].copy()
            buf[touch[0], col:] = 0
        else:
            block = buf[touch, col:]
            lead = block[:, 0]
            low = lead & -lead  # 2^valuation, by wrap-around negation
            piv = block[low.argmin()].copy()
        a = _v2(int(piv[0]))
        odd = int(piv[0]) >> a
        if odd != 1:
            # scaling by a unit keeps the span and makes the pivot exactly 2^a
            piv *= dt(pow(odd, -1, N))
            piv &= mask
        if touch.size > 1:
            block -= (lead >> dt(a))[:, None] * piv
            block &= mask
            buf[touch, col:] = block
        if a:
            # annihilator row: the part of the span invisible at this column
            np.left_shift(piv, dt(ell - a), out=buf[free, col:])
            buf[free, col:] &= mask
            free += 1
        placed.append((col, a, piv))
    rows = np.zeros((len(placed), n), dtype=dt)
    for i, (col, a, piv) in enumerate(placed):
        rows[i, col:] = piv
        q = rows[:i, col] >> dt(a)
        above = q.nonzero()[0]
        if above.size:
            rows[above, col:] = (rows[above, col:] - q[above, None] * piv) & mask
    return rows


class ZModule:
    """Submodule of (Z/2^ell)^n, carried by its Howell-form generators.

    Immutable; howell_form and kernel_perp build one from any rows. gens
    holds residues in _residue_dtype(ell): contains wraps q * row mod 2^w,
    exact mod 2^ell, and kernel_contains and elements sum in int64.
    """

    __slots__ = ("n", "ell", "gens", "_pivots")

    def __init__(self, n: int, ell: int, gens: np.ndarray):
        _check_level(ell)
        gens = np.asarray(gens, dtype=_residue_dtype(ell))
        gens.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "gens", gens)
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
    return ZModule(mat.shape[1], ell, _howell(mat, ell))


def module_sum(a: ZModule, b: ZModule) -> ZModule:
    if (a.n, a.ell) != (b.n, b.ell):
        raise ValueError("modules live in different ambient spaces")
    stacked = np.vstack([a.gens, b.gens]) if len(a.gens) or len(b.gens) else np.zeros((0, a.n), dtype=np.int64)
    return ZModule(a.n, a.ell, _howell(stacked, a.ell))


def scale_lift(mod: ZModule, to_ell: int) -> ZModule:
    """The module 2M inside (Z/2^(ell+1))^n.

    Doubling a Howell-form matrix is again Howell form one level up (every
    pivot and every reduction bound doubles), so no reduction is needed and
    the length is preserved; rows widen first, as 8 -> 9 crosses a dtype.
    """
    _check_level(to_ell)
    if to_ell != mod.ell + 1:
        raise ValueError("lift goes up exactly one level")
    return ZModule(mod.n, to_ell, mod.gens.astype(_residue_dtype(to_ell)) << 1)


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


def kernel_perp(rows, ell: int, *, n: int | None = None) -> ZModule:
    """All b with b . s = 0 mod 2^ell for every constraint row s.

    rows may be a ZModule, whose generators are already the Howell form S;
    other rows are canonicalised once into S. With r rows in S, row i of
    the augmented n x (r + n) matrix [S^T | I_n] is (column i of S, e_i),
    so its row span is {(S x, x)}, and the span elements whose first r
    entries vanish are exactly (0, x) for x in S^perp. By the Howell
    property, every span element whose leading column is r or later lies
    in the span of the rows pivoted there. So the rows of the Howell form
    of [S^T | I_n] that are zero on the first r columns, cut to their last
    n columns, generate S^perp; they are echelon with power-of-two pivots
    reduced above, so they are already its Howell form.

    Each Howell form runs on residues held in the narrowest unsigned dtype
    of width w >= ell (_residue_dtype, in which [S^T | I_n] is built and
    the kernel kept) and masked with 2^ell - 1: products and differences
    wrap mod 2^w, and 2^ell divides 2^w, so every masked entry is exact
    mod 2^ell at any level up to MAX_LEVEL.
    """
    _check_level(ell)
    if isinstance(rows, ZModule):
        if rows.ell != ell or n not in (None, rows.n):
            raise ValueError("module lives in a different ambient space")
        span = rows.gens
    else:
        span = _howell(_as_matrix(rows, ell, n), ell)
    r, n = span.shape
    aug = np.zeros((n, r + n), dtype=_residue_dtype(ell))
    aug[:, :r] = span.T
    aug[np.arange(n), r + np.arange(n)] = 1
    aug = _howell(aug, ell)
    return ZModule(n, ell, aug[~aug[:, :r].any(axis=1), r:])


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
