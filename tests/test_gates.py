import random
import tracemalloc

import numpy as np
import pytest

from cssgates import (
    MAX_LEVEL,
    BitVector,
    ConsistencyError,
    Monomial,
    MonomialCodeSpec,
    NestedCodePair,
    ZModule,
    all_ones_report,
    build_css,
    conjugate_by_yz,
    coset_phase_check,
    css_from_pair,
    decompose_action,
    dot_mod,
    enumerate_group,
    evaluate,
    fixing_group,
    gate_groups,
    howell_form,
    identity_group,
    logical_phase,
    phase_profile,
    rebase_action,
    reed_muller_set,
    rref_basis,
    transversal_group,
)
from cssgates import gates
from cssgates.bincode import _product_levels
from cssgates.gates import ControlledFactor, LogicalDecomposition, _weight_scan, stabilizer_constraints
from cssgates.monomial import _TableGroups
from cssgates.zmod import _residue_dtype, kernel_perp, module_sum

from helpers import (
    decomposition_reference,
    distinct_product_rows,
    flipped_spans_reference,
    mixing_counterexample,
    points,
    power_dual_reference,
    product_table_cases,
    profile_reference,
    random_css_with_logicals,
    random_decreasing_spec,
    random_nested_css,
    realign_pair,
    scan_cases,
    stabilizer_rows_reference,
    subset_sums_reference,
    weight_scan_reference,
)

# frozen module sizes (log2 of the group order) for the two monomial fixtures
MONO16_LENGTHS = {1: (15, 15, 10), 2: (25, 18, 13), 3: (28, 18, 13)}
RM_LENGTHS = {1: (15, 15, 11), 2: (26, 20, 16), 3: (31, 21, 17)}

# frozen controlled-phase decompositions of the three top generators of the
# level-3 fixing group of the sixteen-coordinate fixture
MONO16_FACTORS = {
    "1": [((5,), 4), ((3, 5), 4), ((4, 5), 4), ((3, 4, 5), 4)],
    "x1": [
        ((2,), 4), ((3,), 4), ((4,), 4), ((5,), 4),
        ((2, 3), 4), ((2, 4), 4), ((3, 4), 4), ((3, 5), 4), ((4, 5), 4),
        ((2, 3, 4), 4), ((3, 4, 5), 4),
    ],
    "x2": [
        ((1,), 4), ((3,), 4), ((4,), 4), ((5,), 4),
        ((1, 3), 4), ((1, 4), 4), ((3, 4), 4), ((3, 5), 4), ((4, 5), 4),
        ((1, 3, 4), 4), ((3, 4, 5), 4),
    ],
}


def group_lengths(code, ell):
    return (
        fixing_group(code, ell).length,
        transversal_group(code, ell).length,
        identity_group(code, ell).length,
    )


class TestGroupFixtures:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_mono16_lengths(self, mono16_css, ell):
        assert group_lengths(mono16_css, ell) == MONO16_LENGTHS[ell]

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_rm_lengths(self, rm_css, ell):
        assert group_lengths(rm_css, ell) == RM_LENGTHS[ell]

    def test_pair2_groups(self, pair2_css):
        h2 = fixing_group(pair2_css, 2)
        assert h2 == howell_form([[2, 2]], 2, n=2)
        assert transversal_group(pair2_css, 2) == h2  # one logical qubit
        assert identity_group(pair2_css, 2).length == 0
        h1 = fixing_group(pair2_css, 1)
        assert points(h1.elements()) == {(0, 0), (1, 1)}

    def test_nesting_chain(self, mono16_css):
        for ell in (1, 2, 3):
            h = fixing_group(mono16_css, ell)
            t = transversal_group(mono16_css, ell)
            i = identity_group(mono16_css, ell)
            assert h.contains_module(t)
            assert t.contains_module(i)


class TestStabilizerConstraints:
    def test_pair2_constraint_span(self, pair2_css):
        rows = list(stabilizer_constraints(pair2_css.pair, 2))
        span = howell_form(rows, 2, n=2)
        assert span == howell_form([[1, 1], [2, 0]], 2, n=2)

    def test_mono16_level3_row_shapes(self, mono16_spec, mono16_css):
        rows = list(stabilizer_constraints(mono16_css.pair, 3))
        span = howell_form(rows, 3, n=16)
        assert span.contains(evaluate(4, 0).to_array())
        for u in mono16_spec.outer.monomials():
            assert span.contains(2 * evaluate(4, u).to_array())
        assert span.contains(4 * evaluate(4, 0b0111).to_array())  # x1x2 * x3

    def test_rows_deduplicated(self, pair2_css):
        rows = [r.tobytes() for r in stabilizer_constraints(pair2_css.pair, 2)]
        assert len(rows) == len(set(rows))


class TestConstraintSystems:
    """Every constraint system read off the product table spans what the
    one-combination-at-a-time reference rows span."""

    def test_spans_match_combinations(self):
        for pair, ell in product_table_cases():
            n = pair.n
            levels = _product_levels([v.bits for v in pair.beta1], ell, n)
            fixing = howell_form(stabilizer_rows_reference(pair, ell), ell, n=n)
            assert howell_form(stabilizer_constraints(pair, ell), ell, n=n) == fixing
            # the extras enter only through S_T: the table keeps a product
            # whose every subset reaches an extension vector, the reference
            # one whose some subset does, and the difference lies in S_H
            extras = distinct_product_rows(pair, range(2, ell + 1), need_outside=True)
            transversal = module_sum(fixing, howell_form(extras, ell, n=n))
            direct_t = [v.to_array() for v in pair.beta2]
            direct_t += distinct_product_rows(pair, range(2, ell + 1), need_outside=False)
            direct_id = distinct_product_rows(pair, range(1, ell + 1), need_outside=False)
            assert howell_form(gates._transversal_rows_direct(pair, levels), ell, n=n) == (
                howell_form(direct_t, ell, n=n))
            assert howell_form(gates._identity_rows_direct(pair, levels), ell, n=n) == (
                howell_form(direct_id, ell, n=n))
            spans = gates._pair_spans(pair, ell)
            assert spans[0] == fixing
            assert spans[1] == transversal
            assert spans[2] == howell_form(direct_id, ell, n=n)

    def test_one_table_per_constraint_build(self, monkeypatch, mono16_css):
        depths = []
        table = gates._product_levels

        def counted(masks, depth, n):
            depths.append(depth)
            return table(masks, depth, n)

        monkeypatch.setattr(gates, "_product_levels", counted)
        shifted = build_css(mono16_css.pair.c1, mono16_css.pair.c2,
                            y_z=BitVector.from_string("1" + "0" * 15))
        for code in (mono16_css, shifted):
            for ell in (1, 2, 3):
                depths.clear()
                groups = gates._SpanGroups(code.pair, ell).shifted(code)
                for name in ("H", "T", "Id"):
                    groups.module(name), groups.length(name)
                assert depths == [ell]
                depths.clear()
                fixing_group(code, ell)
                assert depths == [ell - 1]
                depths.clear()
                gate_groups(code, ell)
                transversal_group(code, ell)
                identity_group(code, ell)
                assert depths == [ell] * 3

    def test_each_span_is_one_howell_form(self, monkeypatch, mono16_css, pair2_css):
        from cssgates import zmod

        calls = []
        howell = zmod._howell

        def counted(mat, ell):
            calls.append(1)
            return howell(mat, ell)

        monkeypatch.setattr(zmod, "_howell", counted)
        # S_H, S_T and S_Id, plus the direct T and Id systems checked against them
        for pair in (mono16_css.pair, pair2_css.pair):
            calls.clear()
            gates._pair_spans(pair, 2)
            assert len(calls) == 5


class TestRealignment:
    def test_groups_survive_coset_respecting_realignment(self):
        rng = random.Random(401)
        for _ in range(6):
            code = random_nested_css(rng)
            ell = rng.randrange(1, 3)
            h = fixing_group(code.pair, ell)
            t = transversal_group(code.pair, ell)
            i = identity_group(code.pair, ell)
            for _ in range(3):
                moved = realign_pair(code.pair, rng)
                assert fixing_group(moved, ell) == h
                assert transversal_group(moved, ell) == t
                assert identity_group(moved, ell) == i

    def test_extension_pivot_choice_does_not_matter(self, pair2_css):
        """The two-coordinate pair has two natural coset representatives,
        01 and 10 = 01 + 11; they differ by an inner word, so every group
        is identical either way."""
        pair = pair2_css.pair
        alt = NestedCodePair(pair.n, pair.beta2, (BitVector.from_string("10"),))
        for ell in (1, 2):
            assert fixing_group(alt, ell) == fixing_group(pair, ell)
            assert transversal_group(alt, ell) == transversal_group(pair, ell)
            assert identity_group(alt, ell) == identity_group(pair, ell)

    def test_transversal_not_invariant_under_mixing(self):
        """Mixing logical representatives over GF(2) relabels the cosets
        and genuinely changes which gates act as single-qubit products;
        the brute-force oracle agrees with both kernel computations."""
        pair, mixed = mixing_counterexample()
        t_ref = transversal_group(pair, 2)
        t_mix = transversal_group(mixed, 2)
        assert t_ref != t_mix
        probe = np.array([0, 0, 0, 0, 1, 0])
        assert t_ref.contains(probe) and not t_mix.contains(probe)
        oracle_ref = points(enumerate_group(css_from_pair(pair), 2, "transversal"))
        oracle_mix = points(enumerate_group(css_from_pair(mixed), 2, "transversal"))
        assert oracle_ref == points(t_ref.elements())
        assert oracle_mix == points(t_mix.elements())
        assert fixing_group(pair, 2) == fixing_group(mixed, 2)
        assert identity_group(pair, 2) == identity_group(mixed, 2)

    def test_action_transforms_by_shift_and_permutation(self):
        rng = random.Random(402)
        for _ in range(5):
            code = random_nested_css(rng, n_max=5)
            K = code.num_logical
            if K == 0:
                continue
            ell = 2
            t = transversal_group(code.pair, ell)
            moved = realign_pair(code.pair, rng)
            for b in t.gens:
                before = phase_profile(css_from_pair(code.pair), ell, b).phases
                after = phase_profile(css_from_pair(moved), ell, b).phases
                assert sorted(before.tolist()) == sorted(after.tolist())


class TestDecompose:
    def test_mono16_frozen_factors(self, mono16_css):
        h8 = fixing_group(mono16_css, 3)
        for token, expected in MONO16_FACTORS.items():
            b = evaluate(4, Monomial.parse(4, token)).to_array()
            dec = decompose_action(mono16_css, 3, b, group=h8)
            assert [(f.qubits, f.phase) for f in dec.factors] == expected

    def test_rejects_non_fixing_gate(self, pair2_css):
        with pytest.raises(ValueError, match="preserve"):
            decompose_action(pair2_css, 2, [1, 0])

    def test_factor_arity_capped_by_level(self, mono16_css):
        b = evaluate(4, 0).to_array()
        dec = decompose_action(mono16_css, 3, b)
        assert max(len(f.qubits) for f in dec.factors) <= 3

    def test_phase_at_reconstructs_profile(self):
        rng = random.Random(403)
        for _ in range(8):
            code = random_nested_css(rng)
            ell = rng.randrange(1, 4)
            h = fixing_group(code, ell)
            for b in h.gens:
                dec = decompose_action(code, ell, b, group=h)
                prof = phase_profile(code, ell, b, group=h)
                for v in range(1 << code.num_logical):
                    assert dec.phase_at(v) == prof.phases[v]

    def test_phase_at_accepts_bit_sequences(self, pair2_css):
        h = fixing_group(pair2_css, 2)
        dec = decompose_action(pair2_css, 2, [2, 2], group=h)
        assert dec.phase_at([1]) == dec.phase_at(1) == 2


class TestPhases:
    def test_logical_phase_matches_oracle(self):
        rng = random.Random(404)
        for _ in range(6):
            code = random_nested_css(rng)
            ell = rng.randrange(1, 3)
            h = fixing_group(code, ell)
            for b in h.gens:
                res = coset_phase_check(code, ell, b)
                assert res.gate_class.rank >= 1
                for v in range(1 << code.num_logical):
                    assert res.phases[v] == logical_phase(code, ell, b, v)

    def test_profile_flags_non_member(self, pair2_css):
        prof = phase_profile(pair2_css, 2, [1, 0])
        assert not prof.in_fixing_group

    def test_profile_normalizes_global_phase(self, pair2_css):
        y_z = BitVector.from_string("10")
        shifted = build_css(pair2_css.pair.c1, pair2_css.pair.c2, y_z=y_z)
        b = np.array([2, 2])
        prof = phase_profile(shifted, 2, b)
        assert prof.global_phase == dot_mod(b, y_z.to_array(), 2)
        assert prof.phases[0] == 0

    def test_profile_table_matches_direct_int64_product(self):
        # RM(1) inside RM(2) at m = 6: K = 15, against the 2^15 x 64 label
        # table multiplied out directly
        code = MonomialCodeSpec(6, reed_muller_set(6, 2), reed_muller_set(6, 1)).induced_css()
        n, K, ell = code.n, code.num_logical, MAX_LEVEL
        rng = np.random.default_rng(21)
        y_z = rng.integers(0, 2, size=n)
        shifted = css_from_pair(code.pair, y_z=BitVector.from_ints(list(y_z)))
        b = rng.integers(0, 1 << ell, size=n)
        prof = phase_profile(shifted, ell, b, group=howell_form([], ell, n=n))
        coeffs = (np.arange(1 << K)[:, None] >> np.arange(K)) & 1
        ext = np.array([w.to_array() for w in code.pair.beta1_ext])
        labels = (coeffs @ ext + y_z) % 2
        direct = labels @ b % (1 << ell)
        assert prof.global_phase == direct[0]
        assert prof.phases.dtype == np.int64
        assert np.array_equal(prof.phases, (direct - direct[0]) % (1 << ell))


def _everything(n, ell):
    """The module of all vectors: as the group argument it lets the
    decomposition run on any b."""
    return howell_form(np.eye(n, dtype=np.int64), ell, n=n)


def _shifted(code, rng):
    y_z = rng.integers(0, 2, size=code.n)
    y_z[rng.integers(code.n)] = 1
    return css_from_pair(code.pair, y_z=BitVector.from_ints(list(y_z)))


class TestPhasesAgainstReference:
    """Factors (order included), phases and global phase against the
    combinations decomposition and the direct label-table product."""

    def _check(self, code, ell, b, group):
        phases, global_phase = profile_reference(code, ell, b)
        prof = phase_profile(code, ell, b, group=group)
        assert prof.phases.dtype == np.int64
        assert np.array_equal(prof.phases, phases)
        assert prof.global_phase == global_phase
        expected = decomposition_reference(code, ell, b)
        if prof.in_fixing_group:
            dec = decompose_action(code, ell, b, group=group)
            assert [(f.qubits, f.phase) for f in dec.factors] == expected
        else:
            with pytest.raises(ValueError, match="preserve"):
                decompose_action(code, ell, b, group=group)
        # the identity behind the coefficients holds for every b
        dec = decompose_action(code, ell, b, group=_everything(code.n, ell))
        assert [(f.qubits, f.phase) for f in dec.factors] == expected
        return prof.in_fixing_group

    def test_random_codes_at_every_level(self):
        rng = random.Random(409)
        nprng = np.random.default_rng(409)
        seen = set()
        for trial in range(22):
            code = random_css_with_logicals(rng, trial % 11)
            assert code.num_logical == trial % 11
            if trial % 2:
                code = _shifted(code, nprng)
            for ell in (1, 2, 3, 4, MAX_LEVEL):
                N = 1 << ell
                h = fixing_group(code, ell)
                member = nprng.integers(0, N, size=len(h.gens)) @ h.gens % N
                for b in (member, nprng.integers(0, N, size=code.n)):
                    seen.add((bool(trial % 2), self._check(code, ell, b, h)))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_fifteen_logical_qubits(self, ell):
        code = MonomialCodeSpec(6, reed_muller_set(6, 2), reed_muller_set(6, 1)).induced_css()
        assert code.num_logical == 15
        nprng = np.random.default_rng(410 + ell)
        N = 1 << ell
        for shifted in (code, _shifted(code, nprng)):
            h = fixing_group(shifted, ell)
            member = nprng.integers(0, N, size=len(h.gens)) @ h.gens % N
            assert self._check(shifted, ell, member, h)
            self._check(shifted, ell, nprng.integers(0, N, size=code.n), h)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_ninety_one_logical_qubits(self, ell):
        # RM(1) inside RM(4) at m = 7: K = 91, so qubit indices pass 64 and
        # an int64 subset mask would overflow
        code = MonomialCodeSpec(7, reed_muller_set(7, 4), reed_muller_set(7, 1)).induced_css()
        assert code.num_logical == 91
        nprng = np.random.default_rng(412 + ell)
        for shifted in (code, _shifted(code, nprng)):
            b = nprng.integers(0, 1 << ell, size=code.n)
            dec = decompose_action(shifted, ell, b, group=_everything(code.n, ell))
            factors = [(f.qubits, f.phase) for f in dec.factors]
            assert factors == decomposition_reference(shifted, ell, b)
            assert max(q for qubits, _ in factors for q in qubits) > 64
            assert {len(qubits) for qubits, _ in factors} == set(range(1, ell + 1))

    def test_profile_memory_grows_with_the_factors(self):
        # RM(2) inside RM(3) at m = 6: K = 20, n = 64. The 2^20 phases take
        # 8 MiB, where a 2^20 x 64 label table takes 64 MiB even as uint8
        code = MonomialCodeSpec(6, reed_muller_set(6, 3), reed_muller_set(6, 2)).induced_css()
        assert (code.n, code.num_logical) == (64, 20)
        h = fixing_group(code, 2)
        tracemalloc.start()
        try:
            prof = phase_profile(code, 2, h.gens[-1], group=h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.in_fixing_group and len(prof.phases) == 1 << 20
        assert peak < 3 * 8 * (1 << 20)

    def test_tables_stop_above_twenty_logical_qubits(self):
        # RM(1) inside RM(2) at m = 7: K = 21, so the profile and the
        # decomposition's table both refuse before allocating 2^21 phases
        code = MonomialCodeSpec(7, reed_muller_set(7, 2), reed_muller_set(7, 1)).induced_css()
        assert code.num_logical == 21
        b = np.zeros(code.n, dtype=np.int64)
        everything = _everything(code.n, 1)
        with pytest.raises(ValueError, match="limited to 20 logical qubits"):
            phase_profile(code, 1, b, group=everything)
        with pytest.raises(ValueError, match="limited to 20 logical qubits"):
            decompose_action(code, 1, b, group=everything).phase_table()


class TestZetaPass:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_matches_the_reference_in_place(self, dtype, sign):
        rng = np.random.default_rng(420)
        for m in range(13):
            for shape in ((1 << m,), (1 << m, 1), (1 << m, 2), (1 << m, 20)):
                a = rng.integers(0, 1 << 30, size=shape).astype(dtype)
                expected = subset_sums_reference(a.copy(), m, sign)
                out = gates._subset_sums(a, m, sign)
                assert out is a and out.dtype == dtype
                assert np.array_equal(a, expected), (m, shape)

    def test_wraps_exactly_in_the_residue_dtype(self):
        # sums past 2^8 wrap in uint8, and stay exact mod 2^ell <= 8
        rng = np.random.default_rng(421)
        a = rng.integers(0, 256, size=1 << 12)
        wide = subset_sums_reference(a.copy(), 12)
        narrow = gates._subset_sums(a.astype(np.uint8), 12)
        assert wide.max() > 1 << 16
        for ell in (1, 5, 8):
            assert np.array_equal(narrow.astype(np.int64) % (1 << ell), wide % (1 << ell))


def _random_factors(rng: random.Random, K: int, ell: int, count: int) -> tuple:
    """Factors on distinct random qubit sets of size 1..min(K, ell), in
    (arity, qubits) order, with random nonzero phases."""
    sets = {tuple(sorted(rng.sample(range(1, K + 1), rng.randint(1, min(K, ell)))))
            for _ in range(count if K else 0)}
    return tuple(ControlledFactor(J, rng.randrange(1, 1 << ell))
                 for J in sorted(sets, key=lambda J: (len(J), J)))


class TestPhaseTable:
    @pytest.mark.parametrize("K", [0, 1, 5, 13])
    def test_matches_phase_at_in_the_residue_dtype(self, K):
        rng = random.Random(422 + K)
        for ell in (1, 3, 8, 9, 16, 17, 30):
            dec = LogicalDecomposition(ell, K, _random_factors(rng, K, ell, 24))
            table = dec.phase_table()
            assert table.dtype == _residue_dtype(ell) and table.shape == (1 << K,)
            assert table.tolist() == [dec.phase_at(v) for v in range(1 << K)], ell

    @pytest.mark.parametrize("ell", [3, 17])
    def test_twenty_qubits_against_the_int64_pass(self, ell):
        rng = random.Random(423 + ell)
        dec = LogicalDecomposition(ell, 20, _random_factors(rng, 20, ell, 400))
        expected = np.zeros(1 << 20, dtype=np.int64)
        for f in dec.factors:
            expected[sum(1 << (q - 1) for q in f.qubits)] = f.phase
        expected = subset_sums_reference(expected, 20) % (1 << ell)
        table = dec.phase_table()
        assert table.dtype == _residue_dtype(ell)
        assert np.array_equal(table, expected)
        for v in rng.sample(range(1 << 20), 50):
            assert table[v] == dec.phase_at(v)


class TestSpanRouteAction:
    def test_matches_the_decomposition_and_memberships(self):
        """One route pass gives what _decomposition, logical_phase and
        _Groups.contains give, shifted or not, members or not."""
        rng = random.Random(424)
        nprng = np.random.default_rng(424)
        for trial in range(16):
            code = random_css_with_logicals(rng, trial % 6)
            if trial % 2:
                code = _shifted(code, nprng)
            for ell in (1, 2, 3):
                N = 1 << ell
                groups = gates._SpanGroups(code.pair, ell).shifted(code)
                h = groups.module("H")
                member = nprng.integers(0, N, size=len(h.gens)) @ h.gens % N
                for b in (member, nprng.integers(0, N, size=code.n)):
                    members, global_phase, dec = groups.action(b)
                    assert members == {name: groups.contains(name, b) for name in ("H", "T", "Id")}
                    assert global_phase == logical_phase(code, ell, b, 0)
                    assert dec == gates._decomposition(code, ell, b % N)


class TestKernelsPerGroup:
    def _kernel_inputs(self, monkeypatch, code_n):
        seen = []
        kernel = gates.kernel_perp

        def counted(rows, *args, **kwargs):
            # the ambient length is always named, so the rows may also
            # arrive as a plain stream, empty or not
            assert kwargs["n"] == code_n
            rows = np.asarray(rows)
            seen.append((kwargs.get("within"), len(rows)))
            return kernel(rows, *args, **kwargs)

        monkeypatch.setattr(gates, "kernel_perp", counted)
        return seen

    def test_each_projection_solves_one_kernel(self, monkeypatch, mono16_css):
        seen = self._kernel_inputs(monkeypatch, mono16_css.n)
        groups = gate_groups(mono16_css, 2)
        # H on the whole space, T inside H, and Id inside T, constrained
        # by the extension rows alone
        assert [within for within, _ in seen] == [None, groups[0], groups[1]]
        assert seen[2][1] == mono16_css.num_logical
        assert transversal_group(mono16_css, 2) == groups[1]
        assert identity_group(mono16_css, 2) == groups[2]
        assert fixing_group(mono16_css, 2) == groups[0]
        # a lone projection is one solve on the whole space
        assert [within for within, _ in seen[3:]] == [None] * 3

    def test_shifted_projections_match_the_chain(self, monkeypatch, pair2_css):
        shifted = build_css(pair2_css.pair.c1, pair2_css.pair.c2, y_z=BitVector.from_string("10"))
        seen = self._kernel_inputs(monkeypatch, shifted.n)
        for ell in (1, 2, 3):
            seen.clear()
            h, t, i = gate_groups(shifted, ell)
            assert fixing_group(shifted, ell) == h
            assert transversal_group(shifted, ell) == t
            assert identity_group(shifted, ell) == i
            # the flipped chain: H on the whole space, then T inside H
            # unless its span adds no row (T is H itself, as here at ell =
            # 1), and Id inside T with y_z among its rows; then one
            # whole-space solve per projection
            chain = [None, h, t] if t.length < h.length else [None, t]
            assert [within for within, _ in seen] == chain + [None] * 3
            assert seen[len(chain) - 1][1] >= 1

    def test_requests_in_any_order_match_the_flipped_spans(self):
        """Each solve starts from the nearest group already solved, and a
        shifted copy starts afresh: every request order gives the kernels
        of the flipped spans (flipped_spans_reference) byte for byte, and
        so do the lone projections."""
        rng = random.Random(2626)
        orders = [("H", "T", "Id"), ("Id",), ("T", "Id"), ("Id", "T", "H"), ("H", "Id", "T")]
        for trial in range(24):
            code = random_css_with_logicals(rng, 1 + trial % 3)
            if trial % 2:
                bits = [rng.randrange(2) for _ in range(code.n)]
                bits[rng.randrange(code.n)] = 1
                code = css_from_pair(code.pair, y_z=BitVector.from_ints(bits))
            for ell in (1, 2, 3, 4):
                pair_groups = gates._SpanGroups(code.pair, ell)
                lone = {name: kernel_perp(span, ell, n=code.n)
                        for name, span in zip(("H", "T", "Id"), flipped_spans_reference(code, ell))}
                projections = fixing_group(code, ell), transversal_group(code, ell), identity_group(code, ell)
                assert list(map(_module_bytes, projections)) == list(map(_module_bytes, lone.values()))
                for order in orders:
                    groups = pair_groups.shifted(code)
                    for name in order:
                        assert _module_bytes(groups.module(name)) == _module_bytes(lone[name]), name
                # repeated copies, the unshifted one between, share nothing
                unshifted = kernel_perp(gates._pair_spans(code.pair, ell)[2], ell, n=code.n)
                assert _module_bytes(pair_groups.shifted(code.pair).module("Id")) == _module_bytes(unshifted)
                assert _module_bytes(pair_groups.shifted(code).module("Id")) == _module_bytes(lone["Id"])


class TestSpanMemberships:
    def test_spans_answer_for_their_kernels(self):
        """Every span answers membership and length for its group, and the
        oracle agrees; shifted codes are random, so their groups are not
        symmetric under the flip."""
        rng = random.Random(406)
        nprng = np.random.default_rng(406)
        for trial in range(30):
            code = random_nested_css(rng)
            n = code.n
            if trial % 2:
                y_z = [rng.randrange(2) for _ in range(n)]
                y_z[rng.randrange(n)] = 1
                code = css_from_pair(code.pair, y_z=BitVector.from_ints(y_z))
            for ell in (1, 2, 3):
                N = 1 << ell
                spans = flipped_spans_reference(code, ell)
                groups = gate_groups(code, ell)
                assert fixing_group(code, ell) == groups[0]
                probes = list(nprng.integers(0, N, size=(8, n)))
                for span, group in zip(spans, groups):
                    assert n * ell - span.length == group.length
                    probes += list(group.gens)
                    probes.append(nprng.integers(0, N, size=len(group.gens)) @ group.gens % N)
                for b in probes:
                    rank = coset_phase_check(code, ell, b).gate_class.rank
                    expected = [rank >= 1, rank >= 2, rank >= 3]
                    assert [span.kernel_contains(b) for span in spans] == expected
                    assert [group.contains(b) for group in groups] == expected


def _module_bytes(mod):
    return mod.n, mod.ell, mod.gens.shape, mod.gens.dtype, mod.gens.tobytes()


class TestOneShiftRule:
    """Both group routes move to a Z shift by the one rule of gates._Groups,
    and each must equal the kernels of the flipped spans
    (flipped_spans_reference) in module bytes, lengths and memberships."""

    @staticmethod
    def _shifts(code, rng):
        """A random nonzero y_z, and a word of the outer code, which lies in
        Id's span and so drops nothing from Id."""
        bits = [rng.randrange(2) for _ in range(code.n)]
        bits[rng.randrange(code.n)] = 1
        word = BitVector(code.n)
        for i, row in enumerate(code.pair.beta1):
            if rng.randrange(2) or i == 0:
                word ^= row
        return BitVector.from_ints(bits), word

    @staticmethod
    def _check(route, code, ell, nprng):
        """Compare route.shifted(code) with the reference; return Id's drop."""
        N = 1 << ell
        groups = route.shifted(code)
        spans = flipped_spans_reference(code, ell)
        kernels = [kernel_perp(span, ell, n=code.n) for span in spans]
        probes = [nprng.integers(0, N, code.n)]
        for kernel in kernels:
            # an element, and the same with one entry moved by 2^(ell - 1)
            element = nprng.integers(0, N, len(kernel.gens)) @ kernel.gens % N
            moved = element.copy()
            moved[nprng.integers(code.n)] += N >> 1
            probes += [element, moved]
        for name, span, kernel in zip(("H", "T", "Id"), spans, kernels):
            assert _module_bytes(groups.module(name)) == _module_bytes(kernel), name
            assert groups.length(name) == kernel.length, name
            for b in probes:
                assert groups.contains(name, b) is span.kernel_contains(b), name
        return route.length("Id") - groups.length("Id")

    def test_both_routes_match_the_flipped_spans(self):
        """Random matrix codes on the span route; every RM pair with m <= 5
        and seeded divisibility-closed specs on both routes."""
        rng = random.Random(1515)
        nprng = np.random.default_rng(1515)
        specs = [MonomialCodeSpec(m, reed_muller_set(m, r), reed_muller_set(m, q))
                 for m in range(2, 6) for r in range(m + 1) for q in range(r + 1)]
        specs += [random_decreasing_spec(rng, 5) for _ in range(40)]
        cases = [(random_css_with_logicals(rng, i % 4), None) for i in range(40)]
        cases += [(spec.induced_css(), spec) for spec in specs]
        drops = set()
        for i, (code, spec) in enumerate(cases):
            ell = 1 + i % 3
            routes = [gates._SpanGroups(code.pair, ell)]
            if spec is not None:
                routes.append(_TableGroups(spec, ell))
            random_shift, outer_word = self._shifts(code, rng)
            for y_z in (random_shift, outer_word):
                shifted = css_from_pair(code.pair, y_z=y_z)
                (drop,) = {self._check(route, shifted, ell, nprng) for route in routes}
                assert drop == 0 or y_z is random_shift
                drops.add((ell, drop))
        # random shifts drop up to all of ell from Id
        assert {(ell, drop) for ell in (1, 2, 3) for drop in (0, ell)} <= drops


class TestShiftedCodes:
    def test_conjugation_is_an_involution(self):
        rng = random.Random(405)
        y = BitVector.from_string("0110")
        for _ in range(10):
            b = [rng.randrange(8) for _ in range(4)]
            moved, scalar = conjugate_by_yz(b, y, 3)
            back, scalar2 = conjugate_by_yz(moved, y, 3)
            assert np.array_equal(back, np.array(b) % 8)
            assert scalar == dot_mod(b, y.to_array(), 3)
            # the round trip accumulates b.y + (-b).y = 0
            assert (scalar + scalar2) % 8 == 0

    def test_membership_transfers_through_conjugation(self, pair2_css):
        y_z = BitVector.from_string("10")
        shifted = build_css(pair2_css.pair.c1, pair2_css.pair.c2, y_z=y_z)
        plain_h = fixing_group(pair2_css, 2)
        shifted_h = fixing_group(shifted, 2)
        for b0 in range(4):
            for b1 in range(4):
                b = np.array([b0, b1])
                moved, _ = conjugate_by_yz(b, y_z, 2)
                assert shifted_h.contains(b) == plain_h.contains(moved)

    def test_shifted_groups_match_oracle(self, pair2_css):
        y_z = BitVector.from_string("10")
        y_x = BitVector.from_string("11")  # inner word: a valid X character
        shifted = build_css(pair2_css.pair.c1, pair2_css.pair.c2, y_x=y_x, y_z=y_z)
        for which, compute in (
            ("fixing", fixing_group),
            ("transversal", transversal_group),
            ("identity", identity_group),
        ):
            assert points(enumerate_group(shifted, 2, which)) == points(
                compute(shifted, 2).elements()
            )


class TestAllOnes:
    def test_steane7_level2(self, steane7_css):
        report = all_ones_report(steane7_css, 2)
        assert report.in_fixing_group
        assert report.in_transversal_group
        assert not report.in_identity_group
        assert report.power_dual_contains_inner
        assert report.weights_condition is True
        assert report.divisibility is False

    def test_steane7_level1_not_divisible(self, steane7_css):
        report = all_ones_report(steane7_css, 1)
        assert report.divisibility is False
        assert not report.in_identity_group

    def test_rm_level3_divisible(self, rm_css):
        report = all_ones_report(rm_css, 3)
        assert report.divisibility is True
        assert report.in_identity_group

    def test_power_dual_matches_the_reference(self, monkeypatch):
        # only the containment is under test: with the weight scan off no
        # membership is cross-checked, and in_H = False raises nothing
        monkeypatch.setattr(gates, "_SCAN_CAP", -1)
        rng = random.Random(20261019)
        pairs = [random_nested_css(rng, n_max=10, k1_max=6).pair for _ in range(1000)]
        for m in range(1, 7):
            for r1 in range(m + 1):
                for r2 in range(r1 + 1):
                    spec = MonomialCodeSpec(m, reed_muller_set(m, r1), reed_muller_set(m, r2))
                    pairs.append(spec.induced_pair())
        outcomes = set()
        for pair in pairs:
            for ell in range(1, 5):
                got = gates._all_ones(pair, ell, (False, False, False)).power_dual_contains_inner
                assert got == power_dual_reference(pair, ell), (pair, ell)
                outcomes.add((got, pair.c2.k > 0))
        kinds = {(p.c2.k == 0, p.num_logical == 0) for p in pairs}
        assert {(True, False), (False, True)} <= kinds
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_power_dual_needs_no_elimination(self, monkeypatch, rm_css):
        from cssgates import bincode

        pair = rm_css.pair
        ones = np.ones(pair.n, dtype=np.int64)
        memberships = [gates._SpanGroups(pair, 3).contains(g, ones) for g in gates._GROUPS]
        calls, rref = [], bincode._rref
        monkeypatch.setattr(bincode, "_rref", lambda masks: calls.append(1) or rref(masks))
        report = gates._all_ones(pair, 3, memberships)
        assert calls == []
        assert report.power_dual_contains_inner and report.in_identity_group

    def test_outer_weights(self, steane7_css):
        words = points(
            np.array(
                [
                    sum(
                        (v.to_array() for b, v in zip(range(4), steane7_css.pair.beta1) if mask >> b & 1),
                        start=np.zeros(7, dtype=np.int64),
                    )
                    % 2
                    for mask in range(16)
                ]
            )
        )
        weights = {sum(w) for w in words}
        assert weights == {0, 3, 4, 7}


class TestWeightScan:
    def test_matches_reference(self):
        # several limbs, high blocks, K = 0 and Z shifts (which the scan
        # ignores: it reads the pair)
        outcomes = set()
        for name, code in scan_cases():
            for ell in (1, 2, 3):
                got = _weight_scan(code.pair, ell)
                assert got == weight_scan_reference(code.pair, ell), (name, ell)
                outcomes.add(got)
        assert outcomes == {(True, True), (False, True), (False, False)}


class TestRebase:
    def test_identity_change(self):
        c = np.array([1, 2, 3])
        out = rebase_action(c, np.eye(3, dtype=np.int64), 2)
        assert np.array_equal(out, c % 4)

    def test_rejects_singular_or_non_binary(self):
        with pytest.raises(ValueError):
            rebase_action([1, 2], np.array([[1, 1], [1, 1]]), 2)
        with pytest.raises(ValueError):
            rebase_action([1, 2], np.array([[2, 0], [0, 1]]), 2)
        with pytest.raises(ValueError):
            rebase_action([1, 2], np.eye(3, dtype=np.int64), 2)


class TestValidation:
    def test_css_character_lengths(self, pair2_css):
        with pytest.raises(ValueError):
            build_css(pair2_css.pair.c1, pair2_css.pair.c2, y_z=BitVector(3))

    def test_zero_logical_pair_has_transversal_equal_fixing(self):
        c = rref_basis([BitVector.from_string("1100"), BitVector.from_string("0011")])
        code = build_css(c, c)
        assert code.num_logical == 0
        for ell in (1, 2):
            assert transversal_group(code, ell) == fixing_group(code, ell)
            assert identity_group(code, ell).contains_module(
                howell_form([], ell, n=4)
            )
