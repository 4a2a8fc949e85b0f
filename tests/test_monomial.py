import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cssgates import (
    GateClass,
    GeneralClosedForm,
    HypothesisError,
    Monomial,
    MonomialCodeSpec,
    MonomialSet,
    amplitude_fix_check,
    closed_form_fixing_group,
    closed_form_fixing_group_general,
    closed_form_transversal_identity,
    coset_phase_check,
    decreasing_span_monomials,
    divisibility_closure,
    enumerate_group,
    evaluate,
    fixing_group,
    gate_groups,
    groups,
    identity_group,
    is_decreasing,
    phase_profile,
    reed_muller_degrees,
    reed_muller_fixing_monomials,
    reed_muller_identity_monomials,
    reed_muller_set,
    transversal_group,
    validate_fixing_hypotheses,
    validate_transversal_identity_hypotheses,
)
from cssgates import BitVector, CssCode, gates, monomial, zmod
from cssgates.monomial import (
    _chain_stalls,
    _ev_howell,
    _ev_rows,
    _head_pairing_check,
    _reach_levels,
    _relative_generator_check,
)

from helpers import (
    POOL_SEED,
    flipped_spans_reference,
    general_fixing_reference,
    head_pairing_reference,
    level_loop_reference,
    level_table,
    make_rm_spec,
    power_chain_reference,
    product_set_reference,
    random_decreasing_spec,
    random_spec,
    raw_fixing,
    raw_transversal_identity,
    reach_levels_reference,
    relative_generator_reference,
    rm_pairs,
    sieve_reference,
    span_decomposition,
    transversal_identity_table_reference,
)


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


def _products(spec: MonomialCodeSpec, start: str, s: int) -> MonomialSet:
    """The products of one monomial of the start set and up to s outer
    ones, read off the spec's reach table; both helpers agree on them."""
    got = MonomialSet.from_masks(spec.m, np.flatnonzero(spec._reach(start, s) <= s))
    assert got == product_set_reference(getattr(spec, start), spec.outer, s)
    return got


class TestSetCalculus:
    """The product sets of the paper, read off the inner reach table."""

    def test_product_set_stage_one_is_outer(self, mono16_spec):
        assert _products(mono16_spec, "inner", 1) == mono16_spec.outer

    def test_product_set_stage_two(self, mono16_spec):
        got = _products(mono16_spec, "inner", 2)
        extra = ["x1x3", "x1x4", "x2x3", "x2x4", "x3x4", "x1x2x3", "x1x2x4"]
        expected = mono16_spec.outer.union(MonomialSet.from_tokens(4, extra))
        assert got == expected
        assert len(got) == 13

    def test_product_set_stage_zero_is_inner(self, mono16_spec):
        assert _products(mono16_spec, "inner", 0) == mono16_spec.inner

    def test_monomial_power_pads_with_repetition(self):
        # the t-th power of a set is its products with up to t - 1 more
        # members: the reach table of a spec whose two sets are both it
        s = MonomialSet.from_tokens(3, ["x1", "x2x3"])
        spec = MonomialCodeSpec(3, s, s)
        p2 = _products(spec, "inner", 1)
        assert Monomial.parse(3, "x1") in p2  # repetition keeps lower products
        assert Monomial.parse(3, "x1x2x3") in p2
        assert _products(spec, "inner", 0) == s

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


def count_howell_calls(monkeypatch):
    """The levels of the zmod._howell and monomial._ev_howell calls made
    from now on, by name."""
    calls = {"_howell": [], "_ev_howell": []}
    for module, name in ((zmod, "_howell"), (monomial, "_ev_howell")):
        def counting(*args, fn=getattr(module, name), name=name):
            calls[name].append(args[1])
            return fn(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


class TestHowellCalls:
    """Each closed form writes one Howell form per returned module off its
    scale table and runs no general elimination: one _ev_howell call for H
    and two for T and Id together, and no zmod._howell call, at every
    level."""

    @pytest.fixture
    def howell_calls(self, monkeypatch):
        return count_howell_calls(monkeypatch)

    @pytest.mark.parametrize("which", ["mono16", "rm"])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_fixing_group(self, which, ell, mono16_spec, rm_spec, howell_calls):
        closed_form_fixing_group(mono16_spec if which == "mono16" else rm_spec, ell)
        assert howell_calls == {"_howell": [], "_ev_howell": [ell]}

    @pytest.mark.parametrize(
        "which,ell", [("mono16", 1), ("mono16", 2), ("rm", 1), ("rm", 2), ("rm", 3)]
    )
    def test_transversal_identity(self, which, ell, mono16_spec, rm_spec, howell_calls):
        closed_form_transversal_identity(mono16_spec if which == "mono16" else rm_spec, ell)
        assert howell_calls == {"_howell": [], "_ev_howell": [ell, ell]}

    @pytest.mark.parametrize(
        "m,outer,inner,ell",
        [(2, ["1", "x1", "x1x2"], ["x1x2"], 1), (2, ["1", "x1", "x2"], ["x1"], 2),
         (3, ["1", "x1", "x2", "x3"], ["x1"], 3)],
    )
    def test_general_form(self, m, outer, inner, ell, howell_calls):
        # the head and the doubled tail's raw generators share one form
        assert closed_form_fixing_group_general(spec_of(m, outer, inner)).ell == ell
        assert howell_calls == {"_howell": [ell], "_ev_howell": []}


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


def outcome(fn, *args):
    """fn's result, or the code, level and message of its HypothesisError."""
    try:
        return fn(*args)
    except HypothesisError as exc:
        return exc.code, exc.level, str(exc)


class TestReachLevels:
    """The level arrays of the blocked breadth-first search equal the set
    search they replace, sentinel horizon + 1 included."""

    @pytest.mark.parametrize("block", [None, 3])
    def test_matches_the_set_search(self, monkeypatch, block):
        # a block of 3 entries splits both the frontier and the factors
        if block:
            monkeypatch.setattr(monomial, "_REACH_BLOCK", block)
        rng = random.Random(20261020)
        for m in range(1, 9):
            n = 1 << m
            for _ in range(12):
                start = {rng.randrange(n) for _ in range(rng.randrange(0, 4))}
                factors = {rng.randrange(n) for _ in range(rng.randrange(0, 2 * m + 1))}
                for horizon in (0, 1, 2, 3, zmod.MAX_LEVEL):
                    expected = level_table(m, horizon + 1, reach_levels_reference(start, factors, horizon))
                    got = _reach_levels(n, start, factors, horizon)
                    assert got.dtype == np.int64 and np.array_equal(got, expected), (m, start, factors, horizon)

    def test_many_blocks(self):
        # 299 start masks against 2510 factors: 26 frontier rows per block,
        # so 12 blocks at level one and 143 at level two; the levels are
        # degrees up to 3, then 9, then 12
        spec = MonomialCodeSpec(12, reed_muller_set(12, 6), reed_muller_set(12, 3))
        expected = reach_levels_reference(spec.inner.masks, spec.outer.masks, 2)
        got = _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, 2)
        assert np.array_equal(got, level_table(12, 3, expected))
        assert np.bincount(got).tolist() == [299, 3718, 79]

    def test_reach_in_bounded_memory(self):
        # level two's whole outer product would be 3718 x 2510 int64
        # entries, 75 MB; the search holds one block of 2^16 entries and a
        # few arrays of 2^m
        spec = MonomialCodeSpec(12, reed_muller_set(12, 6), reed_muller_set(12, 3))
        tracemalloc.start()
        try:
            _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRelativeGenerators:
    def test_count_passes_match_the_loop(self):
        """Same first u, same w, same code, level and message as the loop."""
        rng = random.Random(20261021)
        specs = [(spec, ell) for spec in rm_pairs(7) for ell in (1, 2, 3, 4)]
        specs += [(random_spec(rng, 6), rng.randrange(1, 5)) for _ in range(400)]
        specs += [(random_decreasing_spec(rng, 6), rng.randrange(1, 5)) for _ in range(100)]
        codes = {None: 0, "relative_generator_excluded": 0, "relative_generator_isolated": 0}
        for spec, ell in specs:
            got = outcome(_relative_generator_check, spec, ell)
            assert got == outcome(relative_generator_reference, spec, ell), (spec, ell)
            codes[got and got[0]] += 1
        assert min(codes.values()) >= 20, codes


class TestReachTable:
    """Each closed form reads everything off one reach table: the head
    pairing pass certifies it and the sieve is its complement.

    A spec keeps the tables it has built (MonomialCodeSpec._reach), so a
    test that patches _reach_levels must use a spec that no other test
    shares, or a corrupted table stays cached for them."""

    @staticmethod
    def pairing_cases(m_max):
        """(spec, ell, table, code): both tables of every RM pair with
        m <= m_max and of seeded specs, decreasing or not."""
        rng = random.Random(881017)
        levels = {8: (3,), 9: (2,)}
        specs = [(spec, ell) for spec in rm_pairs(m_max) for ell in levels.get(spec.m, (1, 2, 3, 4))]
        specs += [(random_decreasing_spec(rng, min(m_max, 6)), rng.randrange(1, 5)) for _ in range(60)]
        specs += [(random_spec(rng, min(m_max, 6)), rng.randrange(1, 5)) for _ in range(60)]
        for spec, ell in specs:
            inner = _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, ell - 1)
            outer = _reach_levels(spec.n, spec.outer.masks, spec.outer.masks, ell - 1)
            yield spec, ell, inner, "head_outside_kernel"
            yield spec, ell, outer, "identity_head_outside_kernel"

    @pytest.mark.parametrize("m_max", [9, 5])
    def test_pairing_pass_matches_the_loop(self, m_max):
        results = {"passed": 0, "failed": 0}
        for spec, ell, first, code in self.pairing_cases(m_max):
            got = outcome(_head_pairing_check, spec, ell, first, code)
            assert got == outcome(head_pairing_reference, spec, ell, first, code)
            results["passed" if got is None else "failed"] += 1
        assert min(results.values()) >= 50

    def test_pairing_pass_at_large_m(self):
        # RM(1) inside RM(2) at m = 9: 502 heads against 382 constraints
        spec = MonomialCodeSpec(9, reed_muller_set(9, 2), reed_muller_set(9, 1))
        first = _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, 2)
        assert outcome(_head_pairing_check, spec, 3, first, "c") is None
        # RM(2) inside RM(3) plus x1x4..x9: the first failing pair is
        # 130081 of 179876 in (head, constraint) order
        spec = MonomialCodeSpec(9, reed_muller_set(9, 3).union(MonomialSet.from_masks(9, [505])),
                                reed_muller_set(9, 2))
        first = _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, 1)
        got = outcome(_head_pairing_check, spec, 2, first, "c")
        assert got is not None and got == outcome(head_pairing_reference, spec, 2, first, "c")

    def test_sieve_is_the_complement_of_the_table(self):
        rng = random.Random(881018)
        specs = list(rm_pairs(7)) + [random_decreasing_spec(rng, 7) for _ in range(80)]
        for spec in specs:
            for ell in (1, 2, 3, 4):
                expected = outcome(sieve_reference, spec, ell)
                assert outcome(decreasing_span_monomials, spec, ell) == expected

    def test_power_chain_reads_the_outer_table(self):
        rng = random.Random(20261020)
        specs = [random_spec(rng) for _ in range(150)] + [random_decreasing_spec(rng) for _ in range(50)]
        specs.append(spec_of(3, ["1"], ["1"]))
        stalls = []
        for spec in specs:
            for t in range(1, 6):
                expected = outcome(power_chain_reference, spec, t, t) is not None
                for horizon in (t - 1, t + 1):
                    table = _reach_levels(spec.n, spec.outer.masks, spec.outer.masks, horizon)
                    assert _chain_stalls(table, t) == expected, (spec, t, horizon)
                stalls.append((t, expected))
        assert {(1, True), (1, False)} <= set(stalls)
        assert 200 <= sum(s for _, s in stalls) <= len(stalls) - 200

    def test_reads_match_a_fresh_search(self):
        # reads in mixed horizon order are cut from one kept table, and
        # each is the reader's own array
        rng = random.Random(20261022)
        for i in range(200):
            spec = random_spec(rng, 6) if i % 2 else random_decreasing_spec(rng, 6)
            for start in ("inner", "outer"):
                for horizon in (1, 3, 0, 2, zmod.MAX_LEVEL, 1):
                    expected = _reach_levels(spec.n, getattr(spec, start).masks, spec.outer.masks, horizon)
                    got = spec._reach(start, horizon)
                    assert np.array_equal(got, expected), (spec, start, horizon)
                    got[:] = -1
                    assert np.array_equal(spec._reach(start, horizon), expected), (spec, start, horizon)

    def test_one_table_per_closed_form(self, monkeypatch, mono16_spec):
        # a spec keeps its tables, so each case takes a fresh copy that no
        # other test has read
        calls = []
        table = monomial._reach_levels

        def counted(n, start, factors, horizon):
            calls.append(("inner" if start == spec.inner.masks else "outer", horizon))
            return table(n, start, factors, horizon)

        monkeypatch.setattr(monomial, "_reach_levels", counted)
        readers = (validate_fixing_hypotheses, validate_transversal_identity_hypotheses,
                   closed_form_fixing_group, closed_form_transversal_identity,
                   decreasing_span_monomials, groups)
        bases = (make_rm_spec(), mono16_spec, spec_of(3, ["1", "x1", "x2", "x3"], ["x1"]))
        # in either order of the readers
        for order, base, ell in itertools.product((1, -1), bases, (1, 2, 3)):
            spec = MonomialCodeSpec(base.m, base.outer, base.inner)
            calls.clear()
            for fn in readers[::order]:
                outcome(fn, spec, ell)
            assert sorted(calls) == [("inner", ell - 1), ("outer", ell - 1)], (spec, ell, order)
            # the general form rebuilds each table at most once
            calls.clear()
            outcome(closed_form_fixing_group_general, spec)
            starts = [start for start, _ in calls]
            assert len(starts) == len(set(starts)), (spec, calls)


class TestHeadPairing:
    """The min-plus pairing pass against the nested loop over (head,
    constraint) pairs, on level tables that no reach table need give."""

    @staticmethod
    def failing_pairs(m, ell, first):
        """Every failing (u, w), u then w in (degree, mask) order."""
        order = sorted(range(1 << m), key=lambda x: (x.bit_count(), x))
        return [(u, w) for u in order for w in order if w in first
                and (u & ~w).bit_count() + first[w] < first.get(u, ell)]

    def test_random_level_tables_match_the_loop(self):
        rng = random.Random(20261019)
        counts = {"passed": 0, "failed": 0, "not_first_by_mask": 0, "several_constraints": 0}
        for m in range(8):
            # the check reads the cube's size only, so m = 0 needs no spec
            cube = SimpleNamespace(m=m, n=1 << m, full_mask=(1 << m) - 1)
            for ell in (1, 2, 3, 5, 30):
                tables = [{}, {u: rng.randrange(ell) for u in range(1 << m)}]
                for _ in range(4):
                    density = rng.random()
                    tables.append({u: rng.randrange(ell) for u in range(1 << m) if rng.random() < density})
                for _ in range(6):
                    # a table that passes, then a few levels raised, so the
                    # failures fall anywhere in the cube
                    seeds = {rng.randrange(1 << m): rng.randrange(ell) for _ in range(m + 1)}
                    closed = {u: min((u & ~w).bit_count() + t for w, t in seeds.items()) for u in range(1 << m)}
                    first = {u: t for u, t in closed.items() if t < ell}
                    for u in rng.sample(sorted(first), min(len(first), rng.randrange(2, 5))):
                        first[u] = rng.randrange(first[u] + 1, ell + 1)
                    tables.append({u: t for u, t in first.items() if t < ell})
                for first in tables:
                    levels = level_table(m, ell, first)
                    got = outcome(_head_pairing_check, cube, ell, levels, "c")
                    assert got == outcome(head_pairing_reference, cube, ell, levels, "c"), (m, ell, first)
                    pairs = self.failing_pairs(m, ell, first)
                    assert (got is None) == (not pairs)
                    counts["passed" if got is None else "failed"] += 1
                    if pairs:
                        u = pairs[0][0]
                        counts["not_first_by_mask"] += u != min(head for head, _ in pairs)
                        counts["several_constraints"] += sum(head == u for head, _ in pairs) > 1
        assert min(counts.values()) >= 20, counts

    def test_first_failure_in_degree_order(self):
        # m = 3, ell = 3: heads x1x2 (mask 3) and x3 (mask 4) fail, both
        # against x1x2x3 at scale 1, and x3 also against 1, x1x3 and x2x3;
        # degree order raises x3 first, against 1
        cube = SimpleNamespace(m=3, n=8, full_mask=7)
        first = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}
        assert self.failing_pairs(3, 3, first) == [(4, 0), (4, 5), (4, 6), (4, 7), (3, 7)]
        levels = level_table(3, 3, first)
        got = outcome(_head_pairing_check, cube, 3, levels, "c")
        assert got == outcome(head_pairing_reference, cube, 3, levels, "c")
        assert got == ("c", 2, "ev(x1x2) joins the head at level 2 but its pairing against "
                       "the scale-0 constraint from 1 is only divisible by 2^1")

    def test_pairing_pass_in_bounded_memory(self):
        # the pair loop held blocks of 2^16 (head, constraint) pairs; the
        # pass holds a few arrays of 2^m entries
        spec = MonomialCodeSpec(12, reed_muller_set(12, 2), reed_muller_set(12, 1))
        first = _reach_levels(spec.n, spec.inner.masks, spec.outer.masks, 2)
        tracemalloc.start()
        try:
            _head_pairing_check(spec, 3, first, "c")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def module_bytes(mod):
    return mod.n, mod.ell, mod.gens.shape, mod.gens.dtype, mod.gens.tobytes()


class TestComplementForm:
    """The closed forms are one Howell form of the complement rows
    2^(ell - level(u)) * ev(full/u), equal byte for byte to the level
    loop that builds them bottom-up."""

    @staticmethod
    def specs():
        rng = random.Random(881019)
        specs = list(rm_pairs(7))
        specs += [random_decreasing_spec(rng, 5) for _ in range(150)]
        specs += [random_spec(rng, 5) for _ in range(150)]
        return specs

    def test_matches_the_level_loop(self, monkeypatch):
        calls = count_howell_calls(monkeypatch)
        applied = {"H": 0, "T": 0}
        for spec in self.specs():
            for ell in (1, 2, 3, 4):
                inner = reach_levels_reference(spec.inner.masks, spec.outer.masks, ell - 1)
                outer = reach_levels_reference(spec.outer.masks, spec.outer.masks, ell - 1)
                relative = spec.outer.masks - spec.inner.masks
                for name, fn, raw, expected in (
                    ("H", closed_form_fixing_group, raw_fixing, level_loop_reference(spec, ell, inner, ())),
                    ("T", closed_form_transversal_identity, raw_transversal_identity,
                     level_loop_reference(spec, ell, outer, relative, ())),
                ):
                    for made in calls.values():
                        made.clear()
                    got = outcome(fn, spec, ell)
                    if isinstance(got, tuple) and isinstance(got[0], str):
                        # it raises before any Howell form; compare what it would build
                        assert calls == {"_howell": [], "_ev_howell": []}
                        got = raw(spec, ell)
                    else:
                        assert calls == {"_howell": [], "_ev_howell": [ell] * len(expected)}
                        applied[name] += 1
                    got = [got] if name == "H" else list(got)
                    assert list(map(module_bytes, got)) == list(map(module_bytes, expected))
        assert min(applied.values()) >= 100

    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 9, 17, 30])
    def test_ev_howell_is_the_howell_form(self, m, ell):
        """Byte for byte the Howell form of the rows 2^s(w) * ev(w) over the
        w with s(w) < ell, on scale tables from no head to every head."""
        rng = np.random.default_rng(1000 * m + ell)
        n = 1 << m
        for rowless in (1.0, 0.0, 0.2, 0.5, 0.8):
            s = np.where(rng.random(n) < rowless, ell, rng.integers(0, ell, n))
            heads = np.flatnonzero(s < ell)
            rows = _ev_rows(m, heads) << s[heads, None]
            got = _ev_howell(m, ell, s)
            assert module_bytes(got) == module_bytes(zmod.howell_form(rows, ell, n=n))
        # the pair index is shared by every call at this m
        for index in monomial._pair_index(m)[:3]:
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1

    def test_closed_forms_hold_one_byte_per_entry(self):
        # T and Id of RM(1) inside RM(2) at m = 9 have 968 rows of 512
        # residues below 2^3: int64 generators would retain eight times
        # the entries, and an int64 array written first would peak at
        # more than five times
        spec = MonomialCodeSpec(9, reed_muller_set(9, 2), reed_muller_set(9, 1))
        closed_form_transversal_identity(spec, 3)  # the shared pair index
        tracemalloc.start()
        try:
            modules = closed_form_transversal_identity(spec, 3)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = sum(mod.gens.size for mod in modules)
        assert all(mod.gens.dtype == np.uint8 for mod in modules)
        assert entries <= retained < entries * 5 // 4
        assert peak < 3 * entries

    def test_general_form_matches_module_sum(self):
        answered = 0
        for spec in self.specs():
            got = outcome(closed_form_fixing_group_general, spec)
            expected = outcome(general_fixing_reference, spec)
            if isinstance(expected, GeneralClosedForm):
                assert got.ell == expected.ell
                assert module_bytes(got.module) == module_bytes(expected.module)
                answered += 1
            else:
                assert got == expected
        assert answered >= 50

    def test_power_chain_read_off_the_outer_table(self):
        rng = random.Random(881020)
        ones = MonomialSet.from_masks(3, [0])
        specs = [MonomialCodeSpec(3, ones, ones)] + list(rm_pairs(7))
        specs += [random_decreasing_spec(rng, 6) for _ in range(150)]
        specs += [random_spec(rng) for _ in range(150)]
        stalled = 0
        for spec in specs:
            for ell in (1, 2, 3, 4, 5):
                got = outcome(validate_transversal_identity_hypotheses, spec, ell)
                expected = outcome(transversal_identity_table_reference, spec, ell)
                assert got == (None if isinstance(expected, np.ndarray) else expected)
                stalled += got is not None and got[0] == "power_chain_stalled"
        assert stalled >= 20


class TestTableRoute:
    """The groups read off the exponent tables are the kernel route's
    (the kernels of the pair's spans, on a Z shift of the spans flipped by
    flipped_spans_reference) byte for byte, with the same lengths and
    memberships."""

    @staticmethod
    def cases():
        """Every RM pair with m <= 6 and 300 seeded specs with m <= 5,
        half of them not divisibility-closed, at ell = 1..4. The kernel
        references are the cost, so the m = 6 pairs and the seeded specs
        take one level each, in turn."""
        for i, spec in enumerate(rm_pairs(6)):
            for ell in (1, 2, 3, 4) if spec.m < 6 else (1 + i % 4,):
                yield spec, ell
        rng = random.Random(130013)
        specs = [random_decreasing_spec(rng, 5) for _ in range(150)]
        specs += [random_spec(rng, 5) for _ in range(150)]
        for i, spec in enumerate(specs):
            yield spec, 1 + i % 4

    def test_matches_the_kernel_route(self):
        rng = np.random.default_rng(130013)
        for spec, ell in self.cases():
            N = 1 << ell
            pair = spec.induced_pair()
            shifted = CssCode(pair, BitVector(spec.n), BitVector.from_ints(rng.integers(0, 2, spec.n).tolist()))
            spans = gates._pair_spans(pair, ell)
            tables = groups(spec, ell)
            for found, code_spans in ((tables, spans),
                                      (tables.shifted(shifted), flipped_spans_reference(shifted, ell, spans))):
                kernels = [zmod.kernel_perp(span, ell, n=spec.n) for span in code_spans]
                # a random vector, and a random element of each group with
                # one entry moved by 2^(ell - 1), which may leave the group
                elements = np.vstack([rng.integers(0, N, len(k.gens)) @ k.gens % N for k in kernels])
                moved = elements.copy()
                moved[:, rng.integers(spec.n)] += N >> 1
                vectors = np.vstack([rng.integers(0, N, (1, spec.n)), elements, moved])
                for name, span, kernel in zip(("H", "T", "Id"), code_spans, kernels):
                    assert module_bytes(found.module(name)) == module_bytes(kernel), (spec, ell, name)
                    assert found.length(name) == kernel.length
                    for b in vectors:
                        assert found.contains(name, b) is span.kernel_contains(b)

    def test_members_answer_row_by_row(self):
        """One zeta pass over a matrix gives each row's membership."""
        rng = np.random.default_rng(130014)
        for spec, ell in self.cases():
            if spec.m == 6:
                continue
            N = 1 << ell
            tables = groups(spec, ell)
            for name in ("H", "T", "Id"):
                gens = tables.module(name).gens
                inside = rng.integers(0, N, (3, len(gens))) @ gens % N
                moved = inside.copy()
                moved[:, rng.integers(spec.n)] += N >> 1
                rows = np.vstack([rng.integers(0, N, (2, spec.n)), inside, moved, gens])
                got = tables.members(name, rows)
                assert got.tolist() == [tables.contains(name, b) for b in rows]
                assert got[2:5].all() and tables.members(name, gens[:0]).shape == (0,)

    def test_rejects_a_wrong_length(self, mono16_spec):
        tables = groups(mono16_spec, 2)
        with pytest.raises(ValueError, match="vector length mismatch"):
            tables.contains("H", np.zeros(mono16_spec.n + 1, dtype=np.int64))


class TestTableRouteAction:
    """One zeta pass per gate gives the memberships, the global phase and
    the factors (order included) that the span route's coefficient pass
    (span_decomposition), gates.logical_phase and _Groups.contains give."""

    def _check(self, spec, ell, code, rows):
        tables = groups(spec, ell).shifted(code)
        seen = set()
        for b in rows:
            members, global_phase, dec = tables.action(b)
            assert members == {name: tables.contains(name, b) for name in ("H", "T", "Id")}
            assert global_phase == gates.logical_phase(code, ell, b, 0)
            assert dec == span_decomposition(code, ell, b), (spec, ell)
            seen.add(members["H"])
        return seen

    def test_matches_the_decomposition_on_random_specs(self):
        rng = random.Random(130015)
        nprng = np.random.default_rng(130015)
        specs = [random_decreasing_spec(rng, 5) for _ in range(100)]
        specs += [random_spec(rng, 5) for _ in range(60)]
        seen, sieves = set(), 0
        for i, spec in enumerate(specs):
            ell = 1 + i % 4
            N = 1 << ell
            y_z = BitVector.from_ints(nprng.integers(0, 2, spec.n).tolist()) if i % 2 else BitVector(spec.n)
            code = CssCode(spec.induced_pair(), BitVector(spec.n), y_z)
            h = groups(spec, ell).shifted(code).module("H").gens
            rows = [nprng.integers(0, N, spec.n), nprng.integers(0, N, len(h)) @ h % N]
            try:
                sieve = decreasing_span_monomials(spec, ell)
            except HypothesisError:
                pass
            else:
                rows += [evaluate(spec.m, u).to_array() for u in sieve.monomials()]
                sieves += 1
            seen |= {(i % 2, inside) for inside in self._check(spec, ell, code, rows)}
        assert sieves > 50 and seen == {(0, False), (0, True), (1, False), (1, True)}

    @pytest.mark.parametrize("m", [7, 8])
    def test_answers_above_twenty_logical_qubits(self, m):
        # RM(1) inside RM(2): K = 21 and 28, past the 2^20 phase table, which
        # the route never builds
        spec = MonomialCodeSpec(m, reed_muller_set(m, 2), reed_muller_set(m, 1))
        nprng = np.random.default_rng(130016 + m)
        ell = 3
        rows = [evaluate(m, u).to_array() for u in decreasing_span_monomials(spec, ell).monomials()]
        for y_z in (BitVector(spec.n), BitVector.from_ints(nprng.integers(0, 2, spec.n).tolist())):
            code = CssCode(spec.induced_pair(), BitVector(spec.n), y_z)
            # the flipped sieve gates fix the shifted code
            flipped = [gates.conjugate_by_yz(b, y_z, ell)[0] for b in rows]
            assert code.num_logical > 20 and True in self._check(spec, ell, code, rows + flipped)
        with pytest.raises(ValueError, match="limited to 20 logical qubits"):
            groups(spec, ell).action(rows[0])[2].phase_table()


def _monomial_action(spec: MonomialCodeSpec, ell: int, token: str):
    """groups(spec, ell).action of the gate ev(u), u given by its token."""
    return groups(spec, ell).action(evaluate(spec.m, Monomial.parse(spec.m, token)).to_array())


def coefficient_formula(spec: MonomialCodeSpec, ell: int, u: int) -> list[int]:
    """The paper's transversal coefficients of the gate ev(u): 2^(m -
    deg(u OR u_i)) mod 2^ell, the weight of ev(u) * ev(u_i), one per
    encoding monomial u_i."""
    return [pow(2, spec.m - (u | e.mask).bit_count(), 1 << ell) for e in spec.encoding()]


def level_one(dec) -> list[int]:
    """The phase a_{i} of each single-qubit factor of dec, 0 where none."""
    phases = {f.qubits: f.phase for f in dec.factors}
    return [phases.get((i,), 0) for i in range(1, dec.num_logical + 1)]


class TestMonomialAction:
    """The action of a monomial gate ev(u) on the table route: its level-1
    factors are the paper's coefficients 2^(m - deg(u OR u_i)), whether or
    not the gate fixes the code."""

    def test_rm_degree_three_coefficients(self, rm_spec):
        _, _, dec = _monomial_action(rm_spec, 2, "x2x3x4")
        assert level_one(dec) == coefficient_formula(rm_spec, 2, 0b1110) == [1, 2, 2, 2]
        phases = dec.phase_table()
        for i in range(4):
            assert phases[1 << i] == level_one(dec)[i]

    def test_rm_degree_three_is_not_even_fixing(self, rm_spec, rm_css):
        """The coefficient formula is indifferent to membership: the gate
        fails the constant-per-coset test (the inner all-ones word picks
        up phase 2), while its double is genuinely transversal."""
        members, _, _ = _monomial_action(rm_spec, 2, "x2x3x4")
        assert not members["H"]
        assert not members["T"]
        b = evaluate(4, Monomial.parse(4, "x2x3x4")).to_array()
        res = coset_phase_check(rm_css, 2, b)
        assert res.gate_class is GateClass.OUTSIDE
        assert res.witness["word"] == "1" * 16
        doubled = coset_phase_check(rm_css, 2, 2 * b % 4)
        assert doubled.gate_class is GateClass.TRANSVERSAL

    def test_mono16_constant_monomial(self, mono16_spec):
        members, _, dec = _monomial_action(mono16_spec, 3, "1")
        assert members["H"]
        assert not members["T"]  # genuinely controlled factors
        assert level_one(dec) == coefficient_formula(mono16_spec, 3, 0) == [0, 0, 0, 0, 4]

    def test_mono16_unused_variable_outside(self, mono16_spec):
        members, _, _ = _monomial_action(mono16_spec, 3, "x3")
        assert not members["H"]
        assert not members["T"]


    def test_one_kernel_and_the_groups_flags(self, monkeypatch, mono16_spec, mono16_css):
        from cssgates import gates, monomial

        h, t, _ = gate_groups(mono16_css, 3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return zmod.kernel_perp(*args, **kwargs)

        monkeypatch.setattr(gates, "kernel_perp", counted)
        monkeypatch.setattr(monomial, "kernel_perp", counted, raising=False)
        # memberships and H are read off the exponent tables: no kernel
        for token in ("1", "x1", "x3", "x1x2", "x2x3x4"):
            calls.clear()
            members, global_phase, dec = _monomial_action(mono16_spec, 3, token)
            phases = dec.phase_table()
            assert len(calls) == 0, token
            b = evaluate(4, Monomial.parse(4, token)).to_array()
            assert members["H"] is h.contains(b)
            assert members["T"] is t.contains(b)
            prof = phase_profile(mono16_css, 3, b)
            assert np.array_equal(phases, prof.phases)
            assert (global_phase, members["H"]) == (prof.global_phase, prof.in_fixing_group)

    def test_no_howell_form_and_no_elimination(self, monkeypatch, mono16_spec, rm_spec):
        from cssgates import bincode

        calls = []
        howell, rref = zmod._howell, bincode._rref
        monkeypatch.setattr(zmod, "_howell", lambda *a: calls.append("howell") or howell(*a))
        monkeypatch.setattr(bincode, "_rref", lambda *a: calls.append("rref") or rref(*a))
        for spec, ell in ((mono16_spec, 3), (rm_spec, 2), (rm_spec, 4)):
            tables = groups(spec, ell)
            for u in range(spec.n):
                tables.action(evaluate(spec.m, u).to_array())[2].phase_table()
        assert calls == []
        # the counters see the Howell form of a module
        groups(mono16_spec, 3).module("H")
        assert "howell" in calls

    def test_matches_the_phase_profile_construction(self):
        """On the table route, on seeded specs: the level-1 factors of ev(u)
        are the coefficient formula, and the memberships and the profile
        are those of the induced code's span route."""
        rng = random.Random(POOL_SEED + 24)
        specs = [random_spec(rng, 5) for _ in range(80)] + [random_decreasing_spec(rng, 5) for _ in range(40)]
        for i, spec in enumerate(specs):
            ell = i % 4 + 1
            tables, spans = groups(spec, ell), groups(spec.induced_css(), ell)
            for u in {0, spec.full_mask, *rng.sample(range(spec.n), 2), *spec.outer.masks}:
                b = evaluate(spec.m, u).to_array()
                members, global_phase, dec = tables.action(b)
                assert level_one(dec) == coefficient_formula(spec, ell, u), (spec, ell, u)
                assert members == {name: spans.contains(name, b) for name in ("H", "T", "Id")}
                prof = phase_profile(spec, ell, b)
                want = phase_profile(spec.induced_css(), ell, b)
                for field in ("ell", "num_logical", "global_phase", "in_fixing_group"):
                    assert getattr(prof, field) == getattr(want, field), field
                assert (prof.global_phase, prof.in_fixing_group) == (global_phase, members["H"])
                assert prof.phases.dtype == want.phases.dtype == np.int64
                assert np.array_equal(prof.phases, want.phases)

    def test_more_than_twenty_logical_qubits_raise(self):
        spec = MonomialCodeSpec(7, reed_muller_set(7, 2), reed_muller_set(7, 1))
        b = evaluate(7, Monomial.parse(7, "x1x2x3")).to_array()
        with pytest.raises(ValueError, match="limited to 20 logical qubits"):
            phase_profile(spec, 2, b)


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


LEVEL_ENTRIES = {
    "validate_fixing_hypotheses": lambda spec, code, ell: validate_fixing_hypotheses(spec, ell),
    "validate_transversal_identity_hypotheses":
        lambda spec, code, ell: validate_transversal_identity_hypotheses(spec, ell),
    "closed_form_fixing_group": lambda spec, code, ell: closed_form_fixing_group(spec, ell),
    "closed_form_transversal_identity": lambda spec, code, ell: closed_form_transversal_identity(spec, ell),
    "decreasing_span_monomials": lambda spec, code, ell: decreasing_span_monomials(spec, ell),
    "groups": lambda spec, code, ell: groups(spec, ell),
    "reed_muller_fixing_monomials": lambda spec, code, ell: reed_muller_fixing_monomials(4, 0, 1, ell),
    "reed_muller_identity_monomials": lambda spec, code, ell: reed_muller_identity_monomials(4, 1, ell),
    "coset_phase_check": lambda spec, code, ell: coset_phase_check(code, ell, np.zeros(code.n, dtype=np.int64)),
    "enumerate_group": lambda spec, code, ell: enumerate_group(code, ell),
    "amplitude_fix_check": lambda spec, code, ell: amplitude_fix_check(code, ell, np.zeros(code.n, dtype=np.int64)),
}


class TestLevelArgument:
    """Every public monomial and oracle entry that takes ell rejects a
    level outside [1, MAX_LEVEL], or not an integer, with zmod's one
    check before any work."""

    @pytest.mark.parametrize("ell", [0, zmod.MAX_LEVEL + 1, 2.5])
    @pytest.mark.parametrize("entry", list(LEVEL_ENTRIES))
    def test_rejects_a_bad_level(self, rm_spec, rm_css, entry, ell):
        with pytest.raises(ValueError, match="^level must be an integer in"):
            LEVEL_ENTRIES[entry](rm_spec, rm_css, ell)
