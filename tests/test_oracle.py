import random
import tracemalloc

import numpy as np
import pytest

from cssgates import (
    BitVector,
    GateClass,
    aligned_bases,
    build_css,
    css_from_pair,
    dual_basis,
    evaluate,
    fixing_group,
    gate_groups,
    identity_group,
    rref_basis,
    transversal_group,
)
from cssgates.oracle import amplitude_fix_check, coset_phase_check, enumerate_group

from helpers import (
    coset_phase_reference,
    points,
    random_binary_code,
    random_nested_css,
    random_subcode,
    scan_cases,
)


def eye_code(n, k):
    rows = [BitVector.from_string("0" * i + "1" + "0" * (n - 1 - i)) for i in range(k)]
    return rref_basis(rows, n=n)


class TestEnumerate:
    FROZEN = {
        ("fixing", 1): {(0, 0), (1, 1)},
        ("transversal", 1): {(0, 0), (1, 1)},
        ("identity", 1): {(0, 0)},
        ("fixing", 2): {(0, 0), (2, 2)},
        ("transversal", 2): {(0, 0), (2, 2)},
        ("identity", 2): {(0, 0)},
    }

    @pytest.mark.parametrize("which,ell", sorted(FROZEN))
    def test_two_qubit_pair_enumerations(self, pair2_css, which, ell):
        got = points(enumerate_group(pair2_css, ell, which))
        assert got == self.FROZEN[(which, ell)]

    def test_enumeration_matches_module_route(self):
        """Brute force over all N^n phase vectors must agree with the
        kernel computation, with and without a Z shift; the two routes
        share no code path."""
        rng = random.Random(990001)
        shift_rng = random.Random(990002)
        for i in range(6):
            css = random_nested_css(rng, n_max=4, k1_max=3)
            if i % 2:
                css = css_from_pair(css.pair, y_z=BitVector(css.n, shift_rng.randrange(1, 1 << css.n)))
            ell = rng.randrange(1, 3)
            for which, group in (
                ("fixing", fixing_group),
                ("transversal", transversal_group),
                ("identity", identity_group),
            ):
                brute = points(enumerate_group(css, ell, which))
                algebra = points(group(css, ell).elements())
                assert brute == algebra

    def test_rejects_bad_which(self, pair2_css):
        with pytest.raises(ValueError):
            enumerate_group(pair2_css, 1, "stabilizer")


class TestCosetPhaseCheck:
    def test_transversal_member_reports_logical_phases(self, pair2_css):
        res = coset_phase_check(pair2_css, 2, np.array([2, 2]))
        assert res.gate_class is GateClass.TRANSVERSAL
        assert res.phases.tolist() == [0, 2]
        assert res.witness is None

    def test_identity_gate(self, pair2_css):
        res = coset_phase_check(pair2_css, 2, np.array([0, 0]))
        assert res.gate_class is GateClass.IDENTITY
        assert res.phases.tolist() == [0, 0]

    def test_non_member_carries_additivity_witness(self, pair2_css):
        res = coset_phase_check(pair2_css, 2, np.array([1, 3]))
        assert res.gate_class is GateClass.OUTSIDE
        assert res.phases is None
        assert res.witness == {"coset": 1, "word": "10", "phase": 1, "expected": 3}

    def test_non_member_fails_inside_a_coset(self, pair2_css):
        # (1, 1) generates the level-1 group but is not a lift of it
        res = coset_phase_check(pair2_css, 2, np.array([1, 1]))
        assert res.gate_class is GateClass.OUTSIDE
        assert res.witness == {"coset": 0, "word": "11", "phase": 2, "expected": 0}

    def test_fixing_but_not_additive(self, mono16_css):
        b = evaluate(4, 1).to_array()  # ev(x1)
        res = coset_phase_check(mono16_css, 3, b)
        assert res.gate_class is GateClass.FIXES_CODE
        # phases are well defined (constant per coset) but not additive;
        # the witness points at a coset whose phase disagrees with the
        # sum of its one-hot constituents
        assert res.phases is not None and len(res.phases) == 32
        assert res.witness == {"coset": 6, "phase": 4, "additive": 0}

    def test_class_matches_module_memberships(self, pair2_css):
        for bits in range(16):
            b = np.array([bits & 3, bits >> 2])
            cls = coset_phase_check(pair2_css, 2, b).gate_class
            in_h = fixing_group(pair2_css, 2).contains(b)
            in_t = transversal_group(pair2_css, 2).contains(b)
            in_id = identity_group(pair2_css, 2).contains(b)
            assert (cls.rank >= 1) == in_h
            assert (cls.rank >= 2) == in_t
            assert (cls.rank >= 3) == in_id


class TestAgainstReference:
    def test_packed_walk_matches_coset_loop(self):
        """Class, phases and witness equal the one-coset-at-a-time loop on
        several limbs, high blocks, long cosets, K = 0 and Z shifts, for
        the zero gate, a random gate and random members of each group;
        the amplitude route agrees wherever its caps allow."""
        rng = np.random.default_rng(20261019)
        classes = set()
        for name, code in scan_cases():
            for ell in (1, 2, 3):
                N = 1 << ell
                gates = [np.zeros(code.n, dtype=np.int64), rng.integers(0, N, code.n)]
                for group in gate_groups(code, ell):
                    gates.append(rng.integers(0, N, len(group.gens)) @ group.gens % N)
                for b in gates:
                    got = coset_phase_check(code, ell, b)
                    want = coset_phase_reference(code, ell, b)
                    assert got.gate_class is want.gate_class, (name, ell, b)
                    assert got.witness == want.witness, (name, ell, b)
                    if want.phases is None:
                        assert got.phases is None
                    else:
                        assert got.phases.tolist() == want.phases.tolist()
                    if code.pair.c2.k <= 16 and code.n <= 24:
                        assert amplitude_fix_check(code, ell, b) == (got.gate_class.rank >= 1)
                    classes.add(got.gate_class)
        assert classes == set(GateClass)


    def test_long_coset_breaking_in_its_second_block(self):
        # dim C2 = 17: coset 0 spans two blocks of 2^16 words. At ell = 1
        # the phase is linear, so a gate orthogonal to the low 16 inner
        # rows but not to the 17th is constant on the first block and
        # changes only in the second
        code = dict(scan_cases())["k2_17_shifted"]
        beta2 = code.pair.beta2
        low_dual = dual_basis(rref_basis(beta2[:16], n=code.n))
        b = next(d for d in low_dual.basis if (d & beta2[16]).weight % 2).to_array()
        got = coset_phase_check(code, 1, b)
        assert got.gate_class is GateClass.OUTSIDE
        assert got.witness == coset_phase_reference(code, 1, b).witness
        assert got.witness["coset"] == 0


class TestBoundedMemory:
    def test_coset_walk_stays_within_blocks(self):
        # the word matrix of one coset alone would be 2^20 x 24 int64
        # entries, 200 MB; the packed walk holds a few blocks of 2^16 words
        rng = random.Random(20261019)
        c1 = random_binary_code(rng, 24, 22)
        code = build_css(c1, random_subcode(rng, c1, 20))
        b = gate_groups(code, 2)[0].gens[-1]
        tracemalloc.start()
        try:
            result = coset_phase_check(code, 2, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.gate_class.rank >= 1
        assert peak < 8 << 20

    def test_enumeration_rejects_before_allocating(self):
        # ell = 1, n = 20: 2^20 gates pass the space cap, but the scan would
        # pair them with 2^20 codewords, and the lifted codewords alone
        # would take 2^20 x 20 int64 entries, 160 MiB
        css = css_from_pair(aligned_bases(eye_code(20, 20), eye_code(20, 20)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap of 67108864"):
                enumerate_group(css, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


class TestAmplitudeFixCheck:
    def sweep(self, css, ell):
        n = css.pair.n
        count = (1 << ell) ** n
        for idx in range(count):
            b = np.array(
                [(idx >> (ell * i)) & ((1 << ell) - 1) for i in range(n)]
            )
            amp = amplitude_fix_check(css, ell, b)
            cls = coset_phase_check(css, ell, b).gate_class
            assert amp == (cls.rank >= 1), (b, amp, cls)

    def test_agrees_with_coset_route(self, pair2_css):
        self.sweep(pair2_css, 1)
        self.sweep(pair2_css, 2)

    def test_agrees_under_shifted_characters(self, pair2_css):
        for y_x, y_z in (("10", "00"), ("00", "10"), ("11", "01")):
            css = css_from_pair(
                pair2_css.pair,
                y_x=BitVector.from_string(y_x),
                y_z=BitVector.from_string(y_z),
            )
            self.sweep(css, 2)

    def test_y_x_never_changes_the_answer(self):
        # y_x only signs the amplitudes, and a diagonal gate keeps signs
        rng = random.Random(20261018)
        answers = []
        for _ in range(60):
            css = random_nested_css(rng)
            n, ell = css.n, rng.randrange(1, 4)
            y_z = BitVector(n, rng.randrange(1 << n))
            plain = css_from_pair(css.pair, y_z=y_z)
            signed = css_from_pair(css.pair, y_x=BitVector(n, rng.randrange(1, 1 << n)), y_z=y_z)
            members = fixing_group(plain, ell).gens
            for j in range(4):
                if j % 2 and len(members):
                    b = members[rng.randrange(len(members))]
                else:
                    b = np.array([rng.randrange(1 << ell) for _ in range(n)])
                answer = amplitude_fix_check(plain, ell, b)
                assert amplitude_fix_check(signed, ell, b) == answer
                assert answer == (coset_phase_check(signed, ell, b).gate_class.rank >= 1)
                answers.append(answer)
        assert 40 <= sum(answers) <= len(answers) - 40


class TestSizeCaps:
    def test_enumeration_space_cap(self):
        css = css_from_pair(aligned_bases(eye_code(23, 23), eye_code(23, 23)))
        with pytest.raises(ValueError, match="cap"):
            enumerate_group(css, 1)

    def test_coset_inner_dimension_cap(self):
        css = css_from_pair(aligned_bases(eye_code(25, 25), eye_code(25, 25)))
        with pytest.raises(ValueError, match="cap"):
            coset_phase_check(css, 1, np.zeros(25, dtype=np.int64))

    def test_coset_logical_count_cap(self):
        css = css_from_pair(aligned_bases(eye_code(17, 17), eye_code(17, 0)))
        with pytest.raises(ValueError, match="cap"):
            coset_phase_check(css, 1, np.zeros(17, dtype=np.int64))

    def test_amplitude_inner_dimension_cap(self):
        css = css_from_pair(aligned_bases(eye_code(17, 17), eye_code(17, 17)))
        with pytest.raises(ValueError, match="cap"):
            amplitude_fix_check(css, 1, np.zeros(17, dtype=np.int64))

    def test_amplitude_length_cap(self):
        css = css_from_pair(aligned_bases(eye_code(25, 1), eye_code(25, 1)))
        with pytest.raises(ValueError, match="cap"):
            amplitude_fix_check(css, 1, np.zeros(25, dtype=np.int64))

    def test_gate_validation(self, pair2_css):
        with pytest.raises(ValueError):
            coset_phase_check(pair2_css, 2, np.array([1, 2, 3]))  # wrong length
        # entries are taken modulo the level, matching the module route
        wrapped = coset_phase_check(pair2_css, 2, np.array([4, 0]))
        plain = coset_phase_check(pair2_css, 2, np.array([0, 0]))
        assert wrapped.gate_class is plain.gate_class
