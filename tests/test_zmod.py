import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssgates import (
    MAX_LEVEL,
    ZModule,
    dot_mod,
    howell_form,
    kernel_perp,
    module_sum,
    scale_lift,
    zvector_from_text,
    zvector_to_text,
)

from cssgates import zmod
from cssgates.zmod import _howell

from helpers import howell_reference, module_perp, points

# one level at each edge of the uint8, uint16 and uint32 residue dtypes
DTYPE_LEVELS = (1, 2, 3, 8, 9, 16, 17, 29, MAX_LEVEL)


def brute_span(rows, ell, n):
    """All Z_N combinations of the rows, as a set of tuples."""
    N = 1 << ell
    rows = [tuple(int(x) % N for x in r) for r in rows]
    out = {(0,) * n}
    for r in rows:
        out = {
            tuple((a + c * b) % N for a, b in zip(v, r))
            for v in out
            for c in range(N)
        }
    return out


def brute_kernel(rows, ell, n):
    N = 1 << ell
    return {
        v
        for v in itertools.product(range(N), repeat=n)
        if all(sum(a * b for a, b in zip(v, r)) % N == 0 for r in rows)
    }


small_modules = st.builds(
    lambda n, ell, rows: (n, ell, rows),
    st.shared(st.integers(1, 4), key="n"),
    st.shared(st.integers(1, 3), key="ell"),
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4).filter(lambda r: True),
        max_size=4,
    ),
)


class TestHowell:
    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_span_is_preserved_and_canonical(self, data):
        n = data.draw(st.integers(1, 3))
        ell = data.draw(st.integers(1, 2))
        N = 1 << ell
        rows = data.draw(
            st.lists(st.lists(st.integers(0, N - 1), min_size=n, max_size=n), max_size=3)
        )
        mod = howell_form(rows, ell, n=n)
        assert points(mod.elements()) == brute_span(rows, ell, n)
        shuffled = data.draw(st.permutations(rows))
        assert howell_form(shuffled, ell, n=n) == mod

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_row_operations_do_not_change_the_module(self, data):
        n = data.draw(st.integers(2, 5))
        ell = data.draw(st.integers(1, 3))
        N = 1 << ell
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, N - 1), min_size=n, max_size=n),
                min_size=2,
                max_size=4,
            )
        )
        mod = howell_form(rows, ell, n=n)
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, N - 1))
        unit = data.draw(st.sampled_from([u for u in range(1, N, 2)]))
        changed = [list(r) for r in rows]
        if i != j:
            changed[i] = [(a + c * b) % N for a, b in zip(changed[i], changed[j])]
        changed[i] = [(unit * a) % N for a in changed[i]]
        assert howell_form(changed, ell, n=n) == mod

    def test_idempotent(self):
        mod = howell_form([[2, 1, 3], [0, 4, 2], [1, 1, 1]], 3)
        again = howell_form(mod.gens, 3, n=3)
        assert again == mod
        # a module of the same level and length is already canonical
        assert howell_form(mod, 3) is mod and howell_form(mod, 3, n=3) is mod
        assert howell_form(mod, 2) == howell_form(mod.gens, 2, n=3)

    def test_empty_and_zero(self):
        mod = howell_form([], 2, n=3)
        assert mod.length == 0 and len(mod.gens) == 0
        assert mod.contains([0, 0, 0])
        assert not mod.contains([0, 2, 0])
        assert howell_form([[0, 0, 0]], 2, n=3) == mod

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            howell_form([[1]], 0, n=1)
        with pytest.raises(ValueError):
            howell_form([[1]], MAX_LEVEL + 1, n=1)


class TestHowellAgainstReference:
    @pytest.mark.parametrize("ell", DTYPE_LEVELS)
    def test_matches_row_loop_at_every_dtype_width(self, ell):
        rng = np.random.default_rng(1000 + ell)
        N = 1 << ell
        grew = False
        for trial in range(60):
            m, n = int(rng.integers(0, 13)), int(rng.integers(1, 13))
            kind = trial % 3
            if kind == 0:
                mat = rng.integers(0, N, size=(m, n))
            elif kind == 1:
                # entries at and just below 2^ell - 1, with zeros between
                mat = (N - 1 - rng.integers(0, 3, size=(m, n))) * (rng.random((m, n)) < 0.6)
            else:
                # rows scaled by powers of two: even pivots over odd tails
                mat = rng.integers(0, N, size=(m, n)) << rng.integers(0, ell, size=(m, 1))
            mat = np.asarray(mat % N, dtype=np.int64).reshape(m, n)
            before = mat.copy()
            want = howell_reference(mat, ell)
            got, pivots = _howell(mat, ell)
            assert np.array_equal(mat, before)
            # the pivots it placed are the ones the rows show
            assert pivots == ZModule(n, ell, got)._pivots
            assert got.dtype == zmod._residue_dtype(ell)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # only annihilator rows can outnumber the input rows
            grew |= len(got) > m
        # every pivot is 1 at ell = 1, so annihilator rows need ell > 1
        assert grew == (ell > 1)


# the levels of the structured inputs below: every small level, and one
# level each in the uint16 and uint32 residue dtypes
STRUCTURED_LEVELS = (1, 2, 3, 4, 9, 17)


def _ev(m: int, w: int) -> np.ndarray:
    """The evaluation vector of the monomial with mask w on 2^m points."""
    return ((np.arange(1 << m) & w) == w).astype(np.int64)


class TestHowellStructuredInputs:
    """_howell against the row-at-a-time reference on the shapes the
    package feeds it, where the column step meets one touching row or
    many, units and non-units, zero and nonzero annihilator rows."""

    @staticmethod
    def check(mat, ell):
        mat = np.asarray(mat, dtype=np.int64) % (1 << ell)
        before = mat.copy()
        want = howell_reference(mat, ell)
        got, pivots = _howell(mat, ell)
        assert np.array_equal(mat, before)
        assert pivots == ZModule(mat.shape[1], ell, got)._pivots
        assert got.dtype == zmod._residue_dtype(ell) and got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("ell", STRUCTURED_LEVELS)
    def test_monomial_complement_rows(self, ell):
        # 2^s * ev(w) leads at column w, so distinct masks give distinct
        # leading columns: each column has one touching row, every pivot
        # odd part is 1, and every annihilator row 2^ell * ev(w) is zero
        rng = np.random.default_rng(2000 + ell)
        for m in (1, 2, 3, 4):
            for _ in range(6):
                masks = rng.permutation(1 << m)[: int(rng.integers(1, (1 << m) + 1))]
                shifts = rng.integers(0, ell, size=len(masks))
                rows = np.array([_ev(m, int(w)) << int(s) for w, s in zip(masks, shifts)])
                got = self.check(rows, ell)
                assert len(got) == len(masks)
                assert sorted((got != 0).argmax(axis=1).tolist()) == sorted(masks.tolist())

    @pytest.mark.parametrize("ell", STRUCTURED_LEVELS)
    def test_module_stacked_with_new_rows(self, ell):
        # as a constraint span grows: a Howell form, then new product rows
        # scaled by powers of two
        rng = np.random.default_rng(3000 + ell)
        N = 1 << ell
        for _ in range(12):
            n = int(rng.integers(2, 13))
            span = _howell(rng.integers(0, N, size=(int(rng.integers(0, n)), n)) % N, ell)[0]
            extra = rng.integers(0, 2, size=(int(rng.integers(1, 6)), n))
            extra <<= rng.integers(0, ell, size=(len(extra), 1))
            self.check(np.vstack([span, extra]), ell)

    @pytest.mark.parametrize("ell", STRUCTURED_LEVELS)
    def test_kernel_augmented_matrices(self, ell):
        # [S^T | I_n] as kernel_perp builds it
        rng = np.random.default_rng(4000 + ell)
        N = 1 << ell
        for _ in range(12):
            n = int(rng.integers(1, 11))
            rows = rng.integers(0, N, size=(int(rng.integers(0, 8)), n))
            rows <<= rng.integers(0, ell, size=(len(rows), 1))
            span = _howell(rows % N, ell)[0]
            self.check(np.hstack([span.T, np.eye(n, dtype=np.int64)]), ell)

    @pytest.mark.parametrize("ell", STRUCTURED_LEVELS)
    def test_lone_non_unit_pivots(self, ell):
        # row j leads at column 2j with odd * 2^a, odd > 1 wherever the
        # level allows, an odd entry right after it and zeros at every
        # later even column: each even column meets one touching row, whose
        # step must scale it by odd^-1, and a > 0 adds an annihilator row
        # that is nonzero at column 2j + 1 and so pivots there
        rng = np.random.default_rng(5000 + ell)
        N = 1 << ell
        scaled = annihilated = 0
        for _ in range(12):
            k = int(rng.integers(1, 5))
            n = 2 * k + int(rng.integers(0, 3))
            rows = rng.integers(0, N, size=(k, n))
            rows[:, 0::2] = 0
            shifts = rng.integers(0, max(1, ell - 1), size=k)
            for j, a in enumerate(shifts.tolist()):
                odd = int(rng.choice(range(3, 1 << (ell - a), 2))) if ell - a >= 2 else 1
                rows[j, : 2 * j] = 0
                rows[j, 2 * j] = odd << a
                rows[j, 2 * j + 1] |= 1
                scaled += odd > 1
            rng.shuffle(rows)
            got = self.check(rows, ell)
            assert len(got) == k + int((shifts > 0).sum())
            annihilated += int((shifts > 0).sum())
        # ell = 1 has no odd factor but 1; ell = 2 leaves no room for a > 0
        assert (scaled > 0) == (ell > 1) and (annihilated > 0) == (ell > 2)

    def test_lone_non_unit_pivot_adds_its_annihilator(self):
        # 6 = 3 * 2 at ell = 3: scaled by 3^-1 = 3 to 2, with annihilator
        # 4 * (2, 3 * 1) = (0, 4) pivoting at column 1
        got = self.check([[6, 1]], 3)
        assert got.tolist() == [[2, 3], [0, 4]]


class TestAsMatrix:
    @pytest.mark.parametrize("ell", DTYPE_LEVELS)
    def test_mask_equals_modulo(self, ell):
        # negative and out-of-range int64 entries, extremes included
        rng = np.random.default_rng(6000 + ell)
        info = np.iinfo(np.int64)
        mat = rng.integers(info.min, info.max, size=(7, 9), dtype=np.int64)
        mat[0, :4] = [info.min, info.max, -1, -(1 << ell)]
        mat[1, :4] = [1 << ell, (1 << ell) - 1, -(1 << ell) - 1, 0]
        got = zmod._as_matrix(mat, ell, 9)
        assert got.dtype == np.int64
        assert np.array_equal(got, mat % (1 << ell))
        assert np.array_equal(zmod._as_matrix(mat.tolist(), ell, None), mat % (1 << ell))


class TestZModule:
    def test_immutable(self):
        mod = howell_form([[1, 2]], 2, n=2)
        with pytest.raises(AttributeError):
            mod.n = 5
        with pytest.raises(ValueError):
            mod.gens[0, 0] = 3

    def test_length_counts_elements(self):
        mod = howell_form([[2, 0, 2], [0, 1, 3]], 2, n=3)
        assert 1 << mod.length == len(mod.elements())

    def test_contains_module_and_eq(self):
        big = howell_form([[1, 0], [0, 1]], 2, n=2)
        small = howell_form([[2, 2]], 2, n=2)
        assert big.contains_module(small)
        assert not small.contains_module(big)
        assert small != big
        assert hash(small) != hash(big)
        with pytest.raises(ValueError):
            small.contains_module(howell_form([[1]], 2, n=1))

    def test_elements_limit(self):
        full = howell_form(np.eye(8, dtype=np.int64), 3, n=8)
        with pytest.raises(ValueError):
            full.elements(limit=1 << 10)

    def test_full_module_length(self):
        full = howell_form(np.eye(4, dtype=np.int64), 3, n=4)
        assert full.length == 12

    @pytest.mark.parametrize("n", [0, 3])
    def test_empty_module_has_no_pivots(self, n):
        empty = howell_form([], 2, n=n)
        assert empty.gens.shape == (0, n)
        assert empty._pivots == () and empty.length == 0

    def test_pivots_are_python_int_pairs(self):
        # a unit pivot, then 4 = 2^2, whose two annihilator rows pivot at 2^2
        mod = howell_form([[0, 4, 2, 1], [1, 3, 0, 0]], 3, n=4)
        assert mod.gens.tolist() == [[1, 3, 0, 0], [0, 4, 2, 1], [0, 0, 4, 2], [0, 0, 0, 4]]
        assert mod._pivots == ((0, 0), (1, 2), (2, 2), (3, 2))
        assert all(type(x) is int for pair in mod._pivots for x in pair)
        assert mod.length == 6
        assert scale_lift(mod, 4)._pivots == ((0, 1), (1, 3), (2, 3), (3, 3))

    @pytest.mark.parametrize("ell", DTYPE_LEVELS)
    def test_pivots_match_a_row_loop(self, ell):
        rng = np.random.default_rng(2000 + ell)
        for _ in range(20):
            m, n = int(rng.integers(0, 8)), int(rng.integers(1, 9))
            rows = rng.integers(0, 1 << ell, size=(m, n)) << rng.integers(0, ell, size=(m, 1))
            mod = howell_form(rows % (1 << ell), ell, n=n)
            want = []
            for row in mod.gens:
                lead = int(row[np.flatnonzero(row)[0]])
                want.append((int(np.flatnonzero(row)[0]), (lead & -lead).bit_length() - 1))
            assert mod._pivots == tuple(want)


class TestKernel:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3))
        ell = data.draw(st.integers(1, 2))
        N = 1 << ell
        rows = data.draw(
            st.lists(st.lists(st.integers(0, N - 1), min_size=n, max_size=n), max_size=3)
        )
        ker = kernel_perp(rows, ell, n=n)
        assert points(ker.elements()) == brute_kernel(rows, ell, n)
        # the trailing block is canonical as it comes, with no second pass
        assert ker == howell_form(ker.gens, ell, n=n)

    def test_stream_across_batches_matches_canonical_rows(self):
        # 549 constraints, far more rows than coordinates, in three blocks
        # that each constrain their own coordinates, so every block
        # matters; even entries off column 0 keep the kernel nontrivial
        rng = np.random.default_rng(5)
        rows = np.zeros((2 * 256 + 37, 40), dtype=np.int64)
        for lo, hi, cols in ((0, 256, slice(0, 20)), (256, 512, slice(20, 30)), (512, None, slice(30, 40))):
            rows[lo:hi, cols] = rng.integers(0, 8, size=rows[lo:hi, cols].shape)
        rows[:, 1:] &= ~1
        ker = kernel_perp(rows, 3, n=40)
        assert ker.length == 39
        assert ker == kernel_perp(howell_form(rows, 3).gens, 3, n=40)

    def test_module_input_skips_canonicalisation(self, monkeypatch):
        rows = [[2, 1, 3, 0], [0, 2, 2, 1], [1, 1, 0, 3]]
        mod = howell_form(rows, 2, n=4)
        calls = []

        def counted(mat, ell):
            calls.append(len(mat))
            return _howell(mat, ell)

        monkeypatch.setattr(zmod, "_howell", counted)
        assert kernel_perp(mod, 2) == kernel_perp(rows, 2, n=4)
        # one Howell form of [S^T | I] for the module, and for raw rows no
        # more than n; rows that outnumber n are canonicalised first
        assert calls == [4, 4]
        calls.clear()
        assert kernel_perp(rows + rows, 2, n=4) == kernel_perp(mod, 2)
        assert calls == [6, 4, 4]
        assert kernel_perp(mod, 2, n=4) == kernel_perp(mod.gens, 2, n=4)
        assert list(map(tuple, mod)) == list(map(tuple, mod.gens))
        with pytest.raises(ValueError):
            kernel_perp(mod, 3)
        with pytest.raises(ValueError):
            kernel_perp(mod, 2, n=5)

    @pytest.mark.parametrize("ell", DTYPE_LEVELS)
    def test_kernel_contains_matches_the_solved_kernel(self, ell):
        rng = np.random.default_rng(2000 + ell)
        N = 1 << ell
        answers = set()
        for trial in range(40):
            m, n = int(rng.integers(0, 6)), int(rng.integers(1, 9))
            if trial % 2:
                mat = rng.integers(0, N, size=(m, n))
            else:
                # entries at and just below 2^ell - 1, with zeros between
                mat = (N - 1 - rng.integers(0, 3, size=(m, n))) * (rng.random((m, n)) < 0.6)
            span = howell_form(np.asarray(mat, dtype=np.int64).reshape(m, n), ell, n=n)
            ker = kernel_perp(span, ell, n=n)
            # random vectors rarely lie in the kernel, so its generators,
            # their multiples and pairwise sums are probed too
            probes = [rng.integers(0, N, size=n), N - 1 - rng.integers(0, 3, size=n)]
            gens = ker.gens.astype(np.int64)
            for g, h in zip(gens, np.roll(gens, 1, axis=0)):
                probes += [g, (int(rng.integers(0, N)) * g + h) % N, (g + N - 1) % N]
            for b in probes:
                got = span.kernel_contains(b)
                assert type(got) is bool
                assert got == ker.contains(b)
                answers.add(got)
            with pytest.raises(ValueError):
                span.kernel_contains(np.zeros(n + 1, dtype=np.int64))
        assert answers == {True, False}

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_restricted_kernel_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3))
        ell = data.draw(st.integers(1, 2))
        N = 1 << ell
        row = st.lists(st.integers(0, N - 1), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, max_size=3))
        within = data.draw(st.lists(row, max_size=3))
        ker = kernel_perp(rows, ell, n=n, within=within)
        assert points(ker.elements()) == brute_span(within, ell, n) & brute_kernel(rows, ell, n)
        assert ker == howell_form(ker.gens, ell, n=n)
        # a module of within, or its flipped generators, spans the same
        flip = np.array([(-1) ** i for i in range(n)])
        span = howell_form(within, ell, n=n)
        assert kernel_perp(rows, ell, n=n, within=span) == ker
        flipped = kernel_perp(np.asarray(rows, dtype=np.int64).reshape(-1, n) * flip, ell, n=n,
                              within=span.gens.astype(np.int64) * flip)
        assert points(flipped.elements()) == {tuple(int(x) % N for x in flip * v) for v in points(ker.elements())}

    @pytest.mark.parametrize("ell", DTYPE_LEVELS)
    def test_restricted_kernel_is_exact_at_every_dtype_width(self, ell):
        # entries at and just below 2^ell - 1, so W S^T needs 2 ell bits
        # and more per product: against the Howell form of [W S^T | W]
        # with the dots taken in Python ints, cut by the row loop
        rng = np.random.default_rng(7000 + ell)
        N = 1 << ell
        overflows = 0
        for _ in range(20):
            n, h, r = int(rng.integers(1, 17)), int(rng.integers(0, 8)), int(rng.integers(0, 8))
            W = (N - 1 - rng.integers(0, 3, size=(h, n))) % N * (rng.random((h, n)) < 0.7)
            S = (N - 1 - rng.integers(0, 3, size=(r, n))) % N * (rng.random((r, n)) < 0.7)
            exact = [[sum(int(a) * int(b) for a, b in zip(w, s)) for s in S] for w in W]
            overflows += any(x >= 1 << 63 for dots in exact for x in dots)
            dots = np.array([[x % N for x in dots] for dots in exact], dtype=np.int64).reshape(h, r)
            ref = howell_reference(np.hstack([dots, W]), ell)
            got = kernel_perp(S, ell, n=n, within=W)
            assert got.gens.dtype == zmod._residue_dtype(ell)
            assert got.gens.tolist() == ref[~ref[:, :r].any(axis=1), r:].tolist()
        # the dots leave the int64 range at the top level only
        assert (overflows > 0) == (ell == MAX_LEVEL)

    def test_length_pairing(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randrange(1, 7)
            ell = rng.choice([1, 2, 3, 29, MAX_LEVEL])
            N = 1 << ell
            rows = [
                [rng.randrange(N) for _ in range(n)] for _ in range(rng.randrange(4))
            ]
            mod = howell_form(rows, ell, n=n)
            perp = module_perp(mod)
            assert mod.length + perp.length == n * ell
            assert all(dot_mod(g, row, ell) == 0 for g in perp.gens for row in rows)

    def test_double_perp_is_identity(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randrange(1, 6)
            ell = rng.choice([1, 2, 3, 29, MAX_LEVEL])
            rows = [
                [rng.randrange(1 << ell) for _ in range(n)]
                for _ in range(rng.randrange(1, 4))
            ]
            mod = howell_form(rows, ell, n=n)
            perp = module_perp(mod)
            assert all(dot_mod(g, row, ell) == 0 for g in perp.gens for row in rows)
            assert module_perp(perp) == mod


class TestCombinators:
    def test_module_sum(self):
        a = howell_form([[2, 0]], 2, n=2)
        b = howell_form([[0, 2]], 2, n=2)
        s = module_sum(a, b)
        assert s.contains_module(a) and s.contains_module(b)
        assert s.length == 2
        with pytest.raises(ValueError):
            module_sum(a, howell_form([[1]], 2, n=1))

    def test_scale_lift_embeds_scaled_copy(self):
        mod = howell_form([[1, 3], [0, 2]], 2, n=2)
        lifted = scale_lift(mod, 3)
        assert lifted.ell == 3
        assert lifted.length == mod.length
        for row in mod.gens:
            assert lifted.contains(2 * row)
        assert points(lifted.elements()) == {
            tuple(2 * x for x in row) for row in points(mod.elements())
        }
        with pytest.raises(ValueError):
            scale_lift(mod, 2)
        with pytest.raises(ValueError):
            scale_lift(mod, 4)

    def test_dot_mod(self):
        assert dot_mod([1, 2, 3], [3, 2, 1], 2) == (3 + 4 + 3) % 4
        assert dot_mod([7], [7], 3) == 49 % 8


# one level at each edge of the residue dtypes, MAX_LEVEL included
RESIDUE_LEVELS = (1, 8, 9, 16, 17, MAX_LEVEL)


def top_rows(rng, ell, m, n):
    """Random m x n residues, about half of them at and just below 2^ell - 1."""
    N = 1 << ell
    top = N - 1 - rng.integers(0, 3, size=(m, n))
    return np.where(rng.random((m, n)) < 0.5, top, rng.integers(0, N, size=(m, n)))


def contains_reference(mod, b) -> bool:
    """Membership by reduction against the Howell rows in Python ints."""
    N = mod.modulus
    vec = [int(x) % N for x in b]
    for row in mod.gens.tolist():
        col = next(i for i, x in enumerate(row) if x)
        q, rest = divmod(vec[col], row[col])
        if rest:
            return False
        vec = [(x - q * g) % N for x, g in zip(vec, row)]
    return not any(vec)


def elements_reference(mod) -> list:
    """Every sum of c_j * g_j mod 2^ell, c_j in [0, 2^ell / pivot_j), in
    Python ints, last generator fastest."""
    N = mod.modulus
    gens = mod.gens.tolist()
    ranges = [range(N // next(x for x in row if x)) for row in gens]
    return [[sum(c * g[i] for c, g in zip(cs, gens)) % N for i in range(mod.n)]
            for cs in itertools.product(*ranges)]


class TestResidueModules:
    """Every module holds its generators as residues in the narrowest
    unsigned dtype of its level (zmod._residue_dtype), whichever route
    built it; the readers widen to int64 where a sum needs the width."""

    @staticmethod
    def same(got, want):
        assert got.gens.dtype == zmod._residue_dtype(got.ell)
        assert got == want and hash(got) == hash(want)

    @pytest.mark.parametrize("ell", RESIDUE_LEVELS)
    def test_every_route_holds_residues(self, ell):
        rng = np.random.default_rng(3000 + ell)
        for trial in range(12):
            n = int(rng.integers(1, 7))
            rows = top_rows(rng, ell, int(rng.integers(0, 6)), n)
            mod = howell_form(rows, ell, n=n)
            self.same(mod, mod)
            self.same(howell_form(mod.gens, ell, n=n), mod)
            self.same(ZModule(n, ell, mod.gens.astype(np.int64)), mod)
            halves = howell_form(rows[::2], ell, n=n), howell_form(rows[1::2], ell, n=n)
            self.same(module_sum(*halves), mod)
            self.same(kernel_perp(kernel_perp(rows, ell, n=n), ell), mod)
            if ell < MAX_LEVEL:
                lifted = howell_form(mod.gens.astype(np.int64) << 1, ell + 1, n=n)
                self.same(scale_lift(mod, ell + 1), lifted)

    @pytest.mark.parametrize("ell", RESIDUE_LEVELS)
    def test_closed_form_writer_holds_residues(self, ell):
        # every monomial closed form writes its module through _ev_howell
        from cssgates.monomial import _ev_howell, _ev_rows

        rng = np.random.default_rng(3100 + ell)
        for m in (1, 2, 3, 4):
            s = rng.integers(0, ell + 1, size=1 << m)
            heads = np.flatnonzero(s < ell)
            want = howell_form(_ev_rows(m, heads) << s[heads, None], ell, n=1 << m)
            self.same(_ev_howell(m, ell, s), want)

    @pytest.mark.parametrize("ell", (8, 16))
    def test_scale_lift_crosses_a_dtype(self, ell):
        half, N = 1 << (ell - 1), 1 << ell
        mod = howell_form([[1, 1, N - 1], [0, 2, half]], ell, n=3)
        lifted = scale_lift(mod, ell + 1)
        assert mod.gens.tolist() == [[1, 1, N - 1], [0, 2, half]]
        assert lifted.gens.dtype == zmod._residue_dtype(ell + 1) != mod.gens.dtype
        assert lifted.gens.tolist() == [[2, 2, 2 * N - 2], [0, 4, N]]

    @pytest.mark.parametrize("ell", (8, 16, MAX_LEVEL))
    def test_membership_against_python_ints(self, ell):
        rng = np.random.default_rng(3200 + ell)
        N = 1 << ell
        answers, tops = set(), 0
        for trial in range(30):
            # every other module is one row over a unit pivot, which keeps
            # its top residue
            n = int(rng.integers(2, 7))
            rows = top_rows(rng, ell, 1 if trial % 2 else int(rng.integers(2, 4)), n)
            rows[0, :2] = 1, N - 1
            mod = howell_form(rows, ell, n=n)
            tops += int((mod.gens == N - 1).any())
            gens = mod.gens.tolist()
            member = [sum(int(c) * g[i] for c, g in zip(rng.integers(0, N, len(gens)), gens)) % N
                      for i in range(n)]
            probes = [member, [N - 1] * n, rng.integers(0, N, size=n), *mod.gens]
            probes += [np.array(member) + np.eye(n, dtype=np.int64)[k] for k in range(n)]
            ker = kernel_perp(mod, ell)
            probes += list(ker.gens) + [(g.astype(np.int64) + N - 1) % N for g in ker.gens]
            for b in probes:
                got = mod.contains(b)
                assert got == contains_reference(mod, b)
                dots = [sum(int(x) * g for x, g in zip(b, row)) % N for row in gens]
                assert mod.kernel_contains(b) == (not any(dots)) == ker.contains(b)
                answers.add(got)
        assert answers == {True, False} and tops >= 15

    @pytest.mark.parametrize("ell", (8, 16, MAX_LEVEL))
    def test_elements_against_python_ints(self, ell):
        N = 1 << ell
        if ell <= 16:
            # a unit pivot over the top residue: 2^ell elements
            cases = [[[1, N - 1, N - 2]], [[2, N - 1, 0]]]
        else:
            # 2^ell elements are beyond enumeration: the top three bits only
            top = N - (1 << (ell - 3))
            cases = [[[1 << (ell - 2), top, N - (1 << (ell - 2))]], [[1 << (ell - 3), top, 0], [0, 0, top]]]
        for rows in cases:
            mod = howell_form(rows, ell, n=3)
            got = mod.elements()
            assert got.dtype == np.int64
            assert got.tolist() == elements_reference(mod)
            assert got.max() == N - 1 if ell <= 16 else got.max() >= top


class TestTextForm:
    def test_round_trip(self):
        v = [0, 5, 7, 1]
        text = zvector_to_text(v)
        assert np.array_equal(zvector_from_text(text, 3), np.array(v))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            zvector_from_text("0,4", 2)
        with pytest.raises(ValueError):
            zvector_from_text("", 2)
