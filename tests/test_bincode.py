import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssgates import (
    BinaryCode,
    BitVector,
    NestedCodePair,
    aligned_bases,
    dual_basis,
    evaluate,
    rref_basis,
    schur_power,
    star_family,
)

from cssgates import bincode
from cssgates.bincode import _product_levels

from helpers import (
    mixing_counterexample,
    product_table_cases,
    product_table_reference,
    random_binary_code,
)


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("110")
        assert (v.get(0), v.get(1), v.get(2)) == (1, 1, 0)
        assert v.to_string() == "110"
        assert v.weight == 2
        assert v.pivot == 0

    def test_from_ints_matches_from_string(self):
        assert BitVector.from_ints([1, 0, 1]) == BitVector.from_string("101")
        with pytest.raises(ValueError):
            BitVector.from_ints([0, 2, 0])

    def test_numpy_integers_are_coerced(self):
        values = np.array([1, 0, 1], dtype=np.int64)
        v = BitVector.from_ints(list(values))
        assert isinstance(v.bits, int)
        w = BitVector(np.int64(70), 0)
        assert isinstance(w.n, int)
        assert BitVector(70, 1 << 69).to_string().endswith("1")

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(0)
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector.from_string("10a")
        with pytest.raises(ValueError):
            BitVector.from_string("")

    def test_operators(self):
        a = BitVector.from_string("1100")
        b = BitVector.from_string("1010")
        assert (a ^ b).to_string() == "0110"
        assert (a & b).to_string() == "1000"
        assert bool(a) and not bool(BitVector(4))
        with pytest.raises(ValueError):
            a ^ BitVector(3)

    def test_to_array(self):
        arr = BitVector.from_string("0101").to_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [0, 1, 0, 1]

    def test_to_array_matches_get(self):
        rng = random.Random(17)
        for n in (1, 7, 8, 9, 64, 65, 200):
            for bits in (0, (1 << n) - 1, rng.randrange(1 << n)):
                v = BitVector(n, bits)
                arr = v.to_array()
                assert arr.dtype == np.int64 and arr.shape == (n,)
                assert arr.tolist() == [v.get(i) for i in range(n)]

    def test_all_ones_and_pivot(self):
        assert BitVector.all_ones(5).weight == 5
        assert BitVector(5).pivot is None


class TestStar:
    def test_componentwise_product(self):
        u = BitVector.from_string("1101")
        v = BitVector.from_string("1011")
        assert u & v == BitVector.from_string("1001")
        assert u & u == u
        assert u & v == v & u

    def test_star_of_evaluations_multiplies_monomials(self):
        m = 3
        for a in range(1 << m):
            for b in range(1 << m):
                assert evaluate(m, a) & evaluate(m, b) == evaluate(m, a | b)

    def test_family_distinct_products(self, mono16_spec):
        beta1 = [evaluate(4, u) for u in mono16_spec.outer.monomials()]
        fam = star_family(beta1, 2)
        assert evaluate(4, 0b0011) in fam  # x1x2 arises twice, kept once
        assert len(fam) == len(set(fam)) <= 15

    def test_family_edges(self):
        rows = [BitVector.from_string("110"), BitVector.from_string("011")]
        assert star_family(rows, 0) == (BitVector.all_ones(3),)
        assert star_family(rows, 3) == ()
        assert star_family([], 0, n=4) == (BitVector.all_ones(4),)
        with pytest.raises(ValueError):
            star_family([], 0)
        with pytest.raises(ValueError):
            star_family(rows, -1)


class TestProductLevels:
    def test_levels_match_combinations(self):
        for pair, ell in product_table_cases():
            masks = [v.bits for v in pair.beta1]
            levels = _product_levels(masks, ell, pair.n)
            assert len(levels) == ell + 1
            for r, level in enumerate(levels):
                reference = product_table_reference(masks, r, pair.n)
                assert set(level) == set(reference)
                # the least end of each product, not merely some end
                assert level == reference

    def test_star_family_reads_one_level(self):
        for pair, ell in product_table_cases():
            fam = star_family(pair.beta1, ell, n=pair.n)
            reference = product_table_reference([v.bits for v in pair.beta1], ell, pair.n)
            assert len(fam) == len(reference)
            assert {v.bits for v in fam} == set(reference)

    def test_schur_power_spans_all_short_products(self):
        for pair, ell in product_table_cases():
            c1 = pair.c1
            masks = [v.bits for v in c1.basis]
            gens = [BitVector(c1.n, p) for r in range(1, ell + 1)
                    for p in product_table_reference(masks, r, c1.n)]
            assert schur_power(c1, ell) == rref_basis(gens, n=c1.n)


class TestRref:
    def test_known_basis(self):
        code = rref_basis([BitVector.from_string(s) for s in ("1100", "0110", "1010")])
        assert code.k == 2
        assert code.contains(BitVector.from_string("1010"))
        assert not code.contains(BitVector.from_string("1000"))

    def test_empty_needs_length(self):
        assert rref_basis([], n=3).k == 0
        with pytest.raises(ValueError):
            rref_basis([])

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_order_invariance(self, data):
        n = data.draw(st.integers(2, 7))
        rows = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)
        )
        vecs = [BitVector(n, r) for r in rows]
        shuffled = data.draw(st.permutations(vecs))
        assert rref_basis(vecs, n=n) == rref_basis(shuffled, n=n)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_membership_matches_exhaustive_span(self, data):
        n = data.draw(st.integers(2, 6))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
        vecs = [BitVector(n, r) for r in rows]
        code = rref_basis(vecs, n=n)
        span = {0}
        for v in rows:
            span |= {w ^ v for w in span}
        assert span == {
            w for w in range(1 << n) if code.contains(BitVector(n, w))
        }
        assert code.k == len(span).bit_length() - 1

    @pytest.mark.parametrize("rows,defect", [
        (("1000", "0000"), "a zero row or pivots out of order"),
        (("0000",), "a zero row or pivots out of order"),
        (("0100", "1000"), "a zero row or pivots out of order"),
        (("1000", "1010"), "a zero row or pivots out of order"),
        (("1100", "0100"), "a pivot not cleared"),
        (("1001", "0101", "0001"), "a pivot not cleared"),
    ])
    def test_code_rejects_each_non_canonical_basis(self, rows, defect):
        with pytest.raises(ValueError, match=defect):
            BinaryCode(4, tuple(BitVector.from_string(r) for r in rows))

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_code_accepts_exactly_the_reduced_echelon_bases(self, data):
        n = data.draw(st.integers(1, 6))
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
        basis = tuple(BitVector(n, m) for m in masks)
        if bincode._rref(masks) == masks:
            assert BinaryCode(n, basis).basis == basis
        else:
            with pytest.raises(ValueError, match="reduced echelon form"):
                BinaryCode(n, basis)


class TestDual:
    def test_dimension_and_orthogonality(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 8)
            code = random_binary_code(rng, n, rng.randrange(1, n))
            perp = dual_basis(code)
            assert code.k + perp.k == n
            for u in code.basis:
                for v in perp.basis:
                    assert (u & v).weight % 2 == 0
            assert dual_basis(perp) == code

    def test_hamming_contains_its_dual(self, steane7_css):
        pair = steane7_css.pair
        assert pair.c1.k == 4 and pair.c2.k == 3
        assert all(pair.c1.contains(v) for v in pair.c2.basis)


class TestSchurPower:
    def test_square_of_sixteen_coordinate_outer_code(self, mono16_spec):
        c1 = mono16_spec.induced_pair().c1
        squared = schur_power(c1, 2)
        triple = evaluate(4, 0b0111)  # x1x2x3, weight 2
        assert triple.weight == 2
        assert squared.contains(triple)
        assert all(squared.contains(v) for v in c1.basis)

    def test_first_power_is_identity(self):
        rng = random.Random(3)
        code = random_binary_code(rng, 6, 3)
        assert schur_power(code, 1) == code
        with pytest.raises(ValueError):
            schur_power(code, 0)


class TestNestedPair:
    def test_two_coordinate_alignment_picks_reduced_extension(self, pair2_css):
        # the extension representative is reduced against the inner rows,
        # so its pivot avoids the inner pivot set: 01, not 10
        pair = pair2_css.pair
        assert [v.to_string() for v in pair.beta2] == ["11"]
        assert [v.to_string() for v in pair.beta1_ext] == ["01"]

    def test_rejects_non_spanning_rows(self):
        with pytest.raises(ValueError):
            NestedCodePair(2, (BitVector.from_string("11"),), (BitVector.from_string("11"),))

    def test_rejects_dependent_rows(self):
        # independent rows keep distinct cosets of C2 in C1 disjoint, which
        # the oracle's amplitude check relies on instead of testing it
        a, b = BitVector.from_string("1100"), BitVector.from_string("0011")
        assert NestedCodePair(4, (a,), (b,)).num_logical == 1
        with pytest.raises(ValueError, match="not independent"):
            NestedCodePair(4, (a, a), (b,))
        with pytest.raises(ValueError, match="not independent"):
            NestedCodePair(4, (a,), (b, a ^ b))

    def test_independence_reads_distinct_leads(self, monkeypatch, mono16_spec, steane7_css):
        calls, rref = [], bincode._rref
        monkeypatch.setattr(bincode, "_rref", lambda masks: calls.append(1) or rref(masks))
        # evaluation vectors and aligned bases lead at distinct columns
        for pair in (mono16_spec.induced_pair(), steane7_css.pair):
            NestedCodePair(pair.n, pair.beta2, pair.beta1_ext)
        assert calls == []
        # the mixed representatives lead where the inner row does
        pair, mixed = mixing_counterexample()
        assert calls == [1]
        assert {v.pivot for v in mixed.beta1} == {0}
        # the codes are built on first use, once
        assert mixed.c1 == pair.c1 == rref_basis(pair.beta1)
        assert mixed.c2 == pair.c2 == rref_basis(pair.beta2)
        assert mixed.c1 is mixed.c1

    def test_independence_matches_the_rank(self):
        rng = random.Random(20261020)
        outcomes = set()
        for _ in range(400):
            n = rng.randrange(1, 6)
            rows = [BitVector(n, rng.randrange(1 << n)) for _ in range(rng.randrange(1, 5))]
            split = rng.randrange(len(rows) + 1)
            independent = rref_basis(rows).k == len(rows)
            try:
                NestedCodePair(n, tuple(rows[:split]), tuple(rows[split:]))
            except ValueError:
                outcomes.add(False)
                assert not independent
            else:
                outcomes.add(True)
                assert independent
        assert outcomes == {True, False}

    def test_alignment_random_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(2, 8)
            k1 = rng.randrange(1, n + 1)
            c1 = random_binary_code(rng, n, k1)
            rows = [v for v in c1.basis if rng.randrange(2)]
            c2 = rref_basis(rows, n=n)
            pair = aligned_bases(c1, c2)
            assert pair.num_logical == c1.k - c2.k
            assert rref_basis(pair.beta1, n=n) == c1

    def test_equal_codes_give_no_logicals(self):
        c = rref_basis([BitVector.from_string("110"), BitVector.from_string("011")])
        pair = aligned_bases(c, c)
        assert pair.num_logical == 0
        assert pair.beta1_ext == ()
