import random

import numpy as np
import pytest

from cssgates import (
    GateClass,
    HypothesisError,
    Monomial,
    MonomialCodeSpec,
    MonomialSet,
    closed_form_fixing_group,
    closed_form_fixing_group_general,
    closed_form_transversal_identity,
    coset_phase_check,
    decreasing_span_monomials,
    divisibility_closure,
    evaluate,
    fixing_group,
    gate_groups,
    identity_group,
    is_decreasing,
    maximal_elements,
    monomial_action,
    monomial_power,
    phase_profile,
    product_set,
    reed_muller_degrees,
    reed_muller_fixing_monomials,
    reed_muller_identity_monomials,
    reed_muller_set,
    transversal_group,
    validate_fixing_hypotheses,
    validate_transversal_identity_hypotheses,
)
from cssgates import zmod
from cssgates.monomial import _relative_generator_check

from helpers import random_decreasing_spec, raw_fixing, raw_transversal_identity


def spec_of(m, outer, inner):
    return MonomialCodeSpec(
        m, MonomialSet.from_tokens(m, outer), MonomialSet.from_tokens(m, inner)
    )


class TestMonomialBasics:
    def test_parse_and_token(self):
        u = Monomial.parse(4, "x1x3")
        assert u.mask == 0b101 and u.degree == 2 and u.token == "x1x3"
        assert Monomial.parse(4, "1").mask == 0
        assert str(Monomial(4, 0b1111)) == "x1x2x3x4"

    @pytest.mark.parametrize("bad", ["x0", "x5", "x2x1", "x1x1", "y1", "", "x1*x2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Monomial.parse(4, bad)

    def test_divides_and_product(self):
        a = Monomial.parse(3, "x1")
        b = Monomial.parse(3, "x1x3")
        assert a.divides(b) and not b.divides(a)
        assert (a * b).token == "x1x3"
        with pytest.raises(ValueError):
            a.divides(Monomial.parse(4, "x1"))

    def test_set_operations(self):
        s = MonomialSet.from_tokens(3, ["1", "x1", "x2"])
        t = MonomialSet.from_tokens(3, ["x2", "x3"])
        assert Monomial.parse(3, "x1") in s and Monomial.parse(3, "x3") not in s
        assert len(s.union(t)) == 4
        assert s.difference(t).tokens() == ["1", "x1"]
        assert MonomialSet.from_tokens(3, ["x2"]).issubset(s)
        assert s.tokens() == ["1", "x1", "x2"]  # sorted by (degree, mask)


class TestEvaluate:
    def test_weight_is_two_power_of_codegree(self):
        m = 4
        for mask in range(1 << m):
            assert evaluate(m, mask).weight == 1 << (m - bin(mask).count("1"))

    def test_support_is_superset_lattice(self):
        m = 3
        for mask in range(1 << m):
            vec = evaluate(m, mask)
            for point in range(1 << m):
                assert vec.get(point) == (point & mask == mask)

    def test_coordinate_convention(self):
        # x1 is the low binary digit of the point index
        assert evaluate(2, Monomial.parse(2, "x1")).to_string() == "0101"
        assert evaluate(2, Monomial.parse(2, "x2")).to_string() == "0011"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate(2, 4)


class TestSetCalculus:
    def test_product_set_stage_one_is_outer(self, mono16_spec):
        assert product_set(mono16_spec.inner, mono16_spec.outer, 1) == mono16_spec.outer

    def test_product_set_stage_two(self, mono16_spec):
        got = product_set(mono16_spec.inner, mono16_spec.outer, 2)
        extra = ["x1x3", "x1x4", "x2x3", "x2x4", "x3x4", "x1x2x3", "x1x2x4"]
        expected = mono16_spec.outer.union(MonomialSet.from_tokens(4, extra))
        assert got == expected
        assert len(got) == 13

    def test_product_set_stage_zero_is_inner(self, mono16_spec):
        assert product_set(mono16_spec.inner, mono16_spec.outer, 0) == mono16_spec.inner

    def test_monomial_power_pads_with_repetition(self):
        s = MonomialSet.from_tokens(3, ["x1", "x2x3"])
        p2 = monomial_power(s, 2)
        assert Monomial.parse(3, "x1") in p2  # repetition keeps lower products
        assert Monomial.parse(3, "x1x2x3") in p2
        assert monomial_power(s, 1) == s

    def test_maximal_elements(self, mono16_spec):
        assert sorted(maximal_elements(mono16_spec.outer).tokens()) == [
            "x1x2",
            "x3",
            "x4",
        ]

    def test_divisibility(self, mono16_spec):
        assert is_decreasing(mono16_spec.outer)
        not_closed = MonomialSet.from_tokens(3, ["x1x2"])
        assert not is_decreasing(not_closed)
        closure = divisibility_closure(not_closed)
        assert closure.tokens() == ["1", "x1", "x2", "x1x2"]


class TestSpec:
    def test_encoding_order(self, mono16_spec):
        assert [u.token for u in mono16_spec.encoding()] == [
            "x1",
            "x2",
            "x3",
            "x4",
            "x1x2",
        ]

    def test_induced_pair_keeps_verbatim_rows(self, mono16_spec):
        pair = mono16_spec.induced_pair()
        assert pair.beta2 == (evaluate(4, 0),)
        assert pair.beta1_ext == tuple(
            evaluate(4, u) for u in mono16_spec.encoding()
        )
        assert pair.num_logical == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of(3, ["1", "x1"], ["x2"])  # inner not inside outer
        with pytest.raises(ValueError):
            MonomialCodeSpec(3, MonomialSet.from_tokens(3, ["1"]), MonomialSet(3, frozenset()))
        equal = spec_of(3, ["1", "x1"], ["1", "x1"])  # no logicals is fine
        assert equal.induced_pair().num_logical == 0


FIXTURE_RAISES = {("mono16", 3)}  # transversal/identity display does not apply there


class TestClosedForms:
    @pytest.mark.parametrize("which", ["mono16", "rm"])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_fixture_combos_match_kernels(self, which, ell, mono16_spec, rm_spec):
        spec = mono16_spec if which == "mono16" else rm_spec
        css = spec.induced_css()
        assert closed_form_fixing_group(spec, ell) == fixing_group(css, ell)
        if (which, ell) in FIXTURE_RAISES:
            with pytest.raises(HypothesisError) as exc:
                closed_form_transversal_identity(spec, ell)
            assert exc.value.code == "full_power_reached"
            # the displays happen to match anyway; only the hypotheses fail
            assert raw_transversal_identity(spec, ell)[0] == transversal_group(css, ell)
            assert raw_transversal_identity(spec, ell)[1] == identity_group(css, ell)
        else:
            t_mod, id_mod = closed_form_transversal_identity(spec, ell)
            assert t_mod == transversal_group(css, ell)
            assert id_mod == identity_group(css, ell)

    def test_no_logicals_collapses_all_three(self):
        spec = spec_of(3, ["1", "x1", "x2", "x3"], ["1", "x1", "x2", "x3"])
        css = spec.induced_css()
        for ell in (1, 2):
            h = closed_form_fixing_group(spec, ell)
            t, i = closed_form_transversal_identity(spec, ell)
            assert h == fixing_group(css, ell)
            assert t == transversal_group(css, ell)
            assert i == identity_group(css, ell)
            assert h == t == i

    def test_exactness_on_random_decreasing_specs(self):
        """Validators accept exactly when the displays equal the kernels.

        When a pairing check rejects, the corresponding display is
        genuinely wrong, not conservatively skipped.
        """
        rng = random.Random(777001)
        accepted = 0
        head_rejects = 0
        for _ in range(120):
            spec = random_decreasing_spec(rng)
            ell = rng.randrange(1, 4)
            css = spec.induced_css()
            try:
                validate_fixing_hypotheses(spec, ell)
            except HypothesisError as exc:
                if exc.code == "head_outside_kernel":
                    head_rejects += 1
                    assert raw_fixing(spec, ell) != fixing_group(css, ell)
            else:
                accepted += 1
                assert closed_form_fixing_group(spec, ell) == fixing_group(css, ell)
            try:
                validate_transversal_identity_hypotheses(spec, ell)
            except HypothesisError as exc:
                if exc.code == "identity_head_outside_kernel":
                    assert raw_transversal_identity(spec, ell)[1] != identity_group(css, ell)
                elif exc.code.startswith("relative_generator"):
                    assert raw_transversal_identity(spec, ell)[0] != transversal_group(css, ell)
            else:
                t_mod, id_mod = closed_form_transversal_identity(spec, ell)
                assert t_mod == transversal_group(css, ell)
                assert id_mod == identity_group(css, ell)
        assert accepted >= 20
        assert head_rejects >= 5


class TestHowellCalls:
    """The level loop takes one head per level, shared by T and Id: at
    most 2ell-1 Howell forms for H and 3ell-1 for T and Id together."""

    @pytest.fixture
    def howell_calls(self, monkeypatch):
        calls = []
        howell = zmod._howell

        def counting(mat, ell):
            calls.append(ell)
            return howell(mat, ell)

        monkeypatch.setattr(zmod, "_howell", counting)
        return calls

    @pytest.mark.parametrize("which", ["mono16", "rm"])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_fixing_group(self, which, ell, mono16_spec, rm_spec, howell_calls):
        closed_form_fixing_group(mono16_spec if which == "mono16" else rm_spec, ell)
        assert ell <= len(howell_calls) <= 2 * ell - 1

    @pytest.mark.parametrize(
        "which,ell", [("mono16", 1), ("mono16", 2), ("rm", 1), ("rm", 2), ("rm", 3)]
    )
    def test_transversal_identity(self, which, ell, mono16_spec, rm_spec, howell_calls):
        closed_form_transversal_identity(mono16_spec if which == "mono16" else rm_spec, ell)
        assert ell <= len(howell_calls) <= 3 * ell - 1


class TestHypothesisChecks:
    CASES = [
        # (m, outer, inner, ell, validator, code, level)
        (2, ["1", "x1", "x2", "x1x2"], ["1"], 2, "H", "full_product_reached", 2),
        (3, ["1", "x1", "x2", "x1x2"], ["1"], 3, "H", "power_chain_stalled", 3),
        (2, ["1", "x1"], ["1"], 2, "H", "head_outside_kernel", 2),
        (2, ["1", "x1", "x2", "x1x2"], ["1", "x1", "x2", "x1x2"], 1, "T", "full_in_inner", 1),
        (4, ["1", "x1", "x2", "x3", "x4", "x1x2"], ["1"], 3, "T", "full_power_reached", 3),
        (3, ["1", "x1", "x2", "x1x2"], ["1"], 2, "T", "power_chain_stalled", 2),
        (3, ["1", "x1", "x2"], ["1", "x1", "x2"], 2, "T", "identity_head_outside_kernel", 2),
        (3, ["1", "x1", "x2", "x3", "x1x2"], ["1", "x1x2"], 1, "T", "relative_generator_excluded", 1),
    ]

    # case names carry no level, so each case keeps one stable name
    @pytest.mark.parametrize(
        "m,outer,inner,ell,which,code,level",
        CASES,
        ids=[f"{c[0]}-outer{i}-inner{i}-{c[3]}-{c[4]}-{c[5]}" for i, c in enumerate(CASES)],
    )
    def test_error_codes(self, m, outer, inner, ell, which, code, level):
        spec = spec_of(m, outer, inner)
        validator = (
            validate_fixing_hypotheses
            if which == "H"
            else validate_transversal_identity_hypotheses
        )
        with pytest.raises(HypothesisError) as exc:
            validator(spec, ell)
        assert exc.value.code == code
        assert exc.value.level == level

    def test_isolated_relative_generator(self):
        # reachable only by direct call: the public validator always finds
        # a failing head pairing first when the constant monomial is absent
        spec = spec_of(3, ["x1", "x2"], ["x2"])
        with pytest.raises(HypothesisError) as exc:
            _relative_generator_check(spec, 2)
        assert exc.value.code == "relative_generator_isolated"

    def test_level_argument_checked(self, mono16_spec):
        with pytest.raises(ValueError):
            closed_form_fixing_group(mono16_spec, 0)


class TestGapRegression:
    """A divisibility-closed pair whose recursive displays are wrong even
    though the product/power reachability conditions hold; the pairing
    checks are what reject it, and the rejection is justified."""

    def make(self):
        return spec_of(4, ["1", "x1", "x4"], ["1", "x1"])

    def test_fixing_display_rejected_and_wrong(self):
        spec = self.make()
        with pytest.raises(HypothesisError) as exc:
            validate_fixing_hypotheses(spec, 2)
        assert exc.value.code == "head_outside_kernel"
        raw = raw_fixing(spec, 2)
        true = fixing_group(spec.induced_css(), 2)
        assert raw != true
        assert raw.length == true.length == 26  # lengths agree, contents differ

    def test_failing_generator_is_explicit(self):
        # the head generator ev(x1x3x4) pairs to 2 mod 4 with the
        # constraint ev(x1), so it cannot lie in the fixing group
        spec = self.make()
        true = fixing_group(spec.induced_css(), 2)
        head = evaluate(4, Monomial.parse(4, "x1x3x4")).to_array()
        assert not true.contains(head)
        raw = raw_fixing(spec, 2)
        assert raw.contains(head)

    def test_sieve_reports_rather_than_hides(self):
        spec = self.make()
        sieve = decreasing_span_monomials(spec, 2)
        true = fixing_group(spec.induced_css(), 2)
        outside = [
            u.token
            for u in sieve.monomials()
            if not true.contains(evaluate(4, u).to_array())
        ]
        assert "x1x3x4" in outside  # the sieve inherits the gap; callers must test


class TestSieve:
    def test_mono16_level3(self, mono16_spec):
        assert decreasing_span_monomials(mono16_spec, 3).tokens() == ["1", "x1", "x2"]

    def test_mono16_level1_excludes_only_full(self, mono16_spec):
        sieve = decreasing_span_monomials(mono16_spec, 1)
        assert len(sieve) == 15
        assert mono16_spec.full_mask not in sieve.masks

    def test_mono16_sieve_members_land_in_the_group(self, mono16_spec, mono16_css):
        h8 = fixing_group(mono16_css, 3)
        for u in decreasing_span_monomials(mono16_spec, 3).monomials():
            assert h8.contains(evaluate(4, u).to_array())


class TestMonomialAction:
    def test_rm_degree_three_coefficients(self, rm_spec):
        act = monomial_action(rm_spec, 2, "x2x3x4")
        assert act.coefficients.tolist() == [1, 2, 2, 2]
        for i in range(4):
            assert act.profile.phases[1 << i] == act.coefficients[i]

    def test_rm_degree_three_is_not_even_fixing(self, rm_spec, rm_css):
        """The coefficient formula is indifferent to membership: the gate
        fails the constant-per-coset test (the inner all-ones word picks
        up phase 2), while its double is genuinely transversal."""
        act = monomial_action(rm_spec, 2, "x2x3x4")
        assert not act.in_fixing_group
        assert not act.in_transversal_group
        b = evaluate(4, Monomial.parse(4, "x2x3x4")).to_array()
        res = coset_phase_check(rm_css, 2, b)
        assert res.gate_class is GateClass.OUTSIDE
        assert res.witness["word"] == "1" * 16
        doubled = coset_phase_check(rm_css, 2, 2 * b % 4)
        assert doubled.gate_class is GateClass.TRANSVERSAL

    def test_mono16_constant_monomial(self, mono16_spec):
        act = monomial_action(mono16_spec, 3, "1")
        assert act.in_fixing_group
        assert not act.in_transversal_group  # genuinely controlled factors
        assert act.coefficients.tolist() == [0, 0, 0, 0, 4]

    def test_mono16_unused_variable_outside(self, mono16_spec):
        act = monomial_action(mono16_spec, 3, "x3")
        assert not act.in_fixing_group
        assert not act.in_transversal_group


    def test_one_kernel_and_the_groups_flags(self, monkeypatch, mono16_spec, mono16_css):
        from cssgates import gates, monomial

        h, t, _ = gate_groups(mono16_css, 3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return zmod.kernel_perp(*args, **kwargs)

        monkeypatch.setattr(gates, "kernel_perp", counted)
        monkeypatch.setattr(monomial, "kernel_perp", counted, raising=False)
        # memberships are read off the spans; only H is solved, for the profile
        for token in ("1", "x1", "x3", "x1x2", "x2x3x4"):
            calls.clear()
            act = monomial_action(mono16_spec, 3, token)
            assert len(calls) == 1, token
            b = evaluate(4, act.monomial.mask).to_array()
            assert act.in_fixing_group is h.contains(b)
            assert act.in_transversal_group is t.contains(b)
            prof = phase_profile(mono16_css, 3, b, group=h)
            assert np.array_equal(act.profile.phases, prof.phases)
            assert act.profile.in_fixing_group == act.in_fixing_group


class TestGeneralForm:
    def test_matching_instance(self):
        spec = spec_of(2, ["1", "x1", "x1x2"], ["x1x2"])
        res = closed_form_fixing_group_general(spec)
        assert res.ell == 1
        assert res.module == fixing_group(spec.induced_pair(), res.ell)

    def test_mismatching_instance_reported_not_raised(self):
        spec = spec_of(2, ["1", "x1", "x2"], ["x1"])
        res = closed_form_fixing_group_general(spec)
        assert res.ell == 2
        true = fixing_group(spec.induced_pair(), res.ell)
        assert res.module != true
        assert res.module.length == 6 and true.length == 5

    def test_unreachable_full_raises(self):
        spec = spec_of(4, ["1", "x1", "x4"], ["1", "x1"])
        with pytest.raises(HypothesisError) as exc:
            closed_form_fixing_group_general(spec)
        assert exc.value.code == "full_unreachable"
        assert exc.value.level == 3  # the product sets stop growing there

    def test_saturation_raises(self):
        spec = spec_of(2, ["1", "x1", "x2", "x1x2"], ["1"])
        with pytest.raises(HypothesisError) as exc:
            closed_form_fixing_group_general(spec)
        assert exc.value.code == "product_set_saturated"
        assert exc.value.level == 2


class TestReedMullerHelpers:
    def test_degrees_recognized(self, rm_spec, mono16_spec):
        assert reed_muller_degrees(rm_spec) == (0, 1)
        assert reed_muller_degrees(mono16_spec) is None

    def test_fixing_monomials(self):
        got = reed_muller_fixing_monomials(4, 0, 1, 3)
        assert got == reed_muller_set(4, 1)
        with pytest.raises(HypothesisError) as exc:
            reed_muller_fixing_monomials(4, 1, 1, 4)
        assert exc.value.code == "degree_bound"

    def test_identity_monomials(self):
        got = reed_muller_identity_monomials(4, 1, 2)
        assert got == reed_muller_set(4, 1)
        with pytest.raises(HypothesisError) as exc:
            reed_muller_identity_monomials(4, 1, 4)
        assert exc.value.code == "degree_bound"

    def test_bounds_against_groups(self, rm_spec, rm_css):
        h8 = fixing_group(rm_css, 3)
        for u in reed_muller_fixing_monomials(4, 0, 1, 3).monomials():
            assert h8.contains(evaluate(4, u).to_array())
        id4 = identity_group(rm_css, 2)
        for u in reed_muller_identity_monomials(4, 1, 2).monomials():
            assert id4.contains(evaluate(4, u).to_array())
