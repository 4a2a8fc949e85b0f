"""End-to-end acceptance checks.

One test per criterion, in order, each printing a [PASS]/[FAIL] line with
its runtime. Instance pools are seeded and shared across criteria, and
computed groups are memoized so the structural-invariant sweeps reuse the
earlier work.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from cssgates import (
    BitVector,
    GateClass,
    HypothesisError,
    Monomial,
    all_ones_report,
    build_css,
    closed_form_fixing_group,
    closed_form_transversal_identity,
    conjugate_by_yz,
    css_from_pair,
    decompose_action,
    dual_basis,
    evaluate,
    fixing_group,
    groups,
    howell_form,
    logical_phase,
    reed_muller_fixing_monomials,
    reed_muller_identity_monomials,
    rref_basis,
    scale_lift,
    transversal_group,
    validate_fixing_hypotheses,
    validate_transversal_identity_hypotheses,
)
from cssgates.oracle import amplitude_fix_check, coset_phase_check, enumerate_group

from helpers import (
    POOL_SEED,
    make_mono16_spec,
    make_pair2_css,
    make_rm_spec,
    make_steane7_css,
    module_perp,
    points,
    random_decreasing_spec,
    random_nested_css,
    raw_transversal_identity,
    realign_pair,
)

BUDGETS = {1: 30.0, 2: 1.0, 3: 60.0, 4: 5.0, 5: None, 6: 5.0, 7: 1.0, 8: 10.0, 9: 1.0}

UNIFORM_GATE_FACTORS = {
    "1": [((5,), 4), ((3, 5), 4), ((4, 5), 4), ((3, 4, 5), 4)],
    "x1": [
        ((2,), 4), ((3,), 4), ((4,), 4), ((5,), 4),
        ((2, 3), 4), ((2, 4), 4), ((3, 4), 4), ((3, 5), 4), ((4, 5), 4),
        ((2, 3, 4), 4), ((3, 4, 5), 4),
    ],
    # recorded output of the coefficient formula; the source line for this
    # gate is reproduced only up to its documented suspected misprint
    "x2": [
        ((1,), 4), ((3,), 4), ((4,), 4), ((5,), 4),
        ((1, 3), 4), ((1, 4), 4), ((3, 4), 4), ((3, 5), 4), ((4, 5), 4),
        ((1, 3, 4), 4), ((3, 4, 5), 4),
    ],
}


@contextmanager
def criterion(capfd, num, label):
    budget = BUDGETS[num]
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({elapsed:.2f}s)")


@lru_cache(maxsize=None)
def tiny_pool():
    """EX2 at both levels plus seeded random nested pairs, as (code, ell)."""
    rng = random.Random(POOL_SEED)
    pool = [(make_pair2_css(), 1), (make_pair2_css(), 2)]
    for _ in range(50):
        code = random_nested_css(rng)
        pool.append((code, rng.randrange(1, 3)))
    for _ in range(10):
        pool.append((random_nested_css(rng, n_max=5), 3))
    return tuple(pool)


@lru_cache(maxsize=None)
def fixture_combos():
    out = []
    for name, spec in (("mono16", make_mono16_spec()), ("rm", make_rm_spec())):
        css = spec.induced_css()
        for ell in (1, 2, 3):
            out.append((name, spec, css, ell))
    return tuple(out)


@lru_cache(maxsize=None)
def decreasing_pool():
    """Twenty seeded decreasing specs passing both hypothesis validators.

    Levels are stratified over {1, 2}: at level 1 the hypotheses always
    hold, at level 2 roughly one random spec in ninety passes, and at
    level 3 none do (measured over thousands of draws), so the fixture
    combos carry the level-3 coverage.
    """
    rng = random.Random(POOL_SEED + 2)
    kept = []
    for slot in range(20):
        ell = 1 + slot % 2
        while True:
            spec = random_decreasing_spec(rng)
            try:
                validate_fixing_hypotheses(spec, ell)
                validate_transversal_identity_hypotheses(spec, ell)
            except HypothesisError:
                continue
            break
        kept.append((spec, spec.induced_css(), ell))
    return tuple(kept)


@lru_cache(maxsize=None)
def invariant_pool():
    """Every instance appearing in criteria 1-4, as (code, ell)."""
    pool = list(tiny_pool())
    pool.extend((css, ell) for _, _, css, ell in fixture_combos())
    pool.extend((css, ell) for _, css, ell in decreasing_pool())
    return tuple(pool)


# keyed by object identity; the stored code reference keeps the object
# alive so its id can never be recycled for a different code
_GROUPS: dict = {}


def groups_for(code, ell):
    key = (id(code), ell)
    if key not in _GROUPS:
        found = groups(code, ell)
        _GROUPS[key] = (code, {name: found.module(name) for name in ("H", "T", "Id")})
    return _GROUPS[key][1]


def reconstruct_phases(found, b):
    """Raw coset exponents rebuilt from the controlled-factor expansion of
    a member b of the fixing group of found, the groups of a code."""
    members, global_phase, dec = found.action(b)
    assert members["H"]
    N = 1 << dec.ell
    K = dec.num_logical
    idx = np.arange(1 << K)
    raw = np.full(1 << K, global_phase, dtype=np.int64)
    for factor in dec.factors:
        mask = 0
        for q in factor.qubits:
            mask |= 1 << (q - 1)
        raw[(idx & mask) == mask] += int(factor.phase)
    return raw % N


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self, capfd):
        with criterion(capfd, 1, "brute-force enumeration equals the kernel modules"):
            for code, ell in tiny_pool():
                groups = groups_for(code, ell)
                for which, name in (
                    ("fixing", "H"),
                    ("transversal", "T"),
                    ("identity", "Id"),
                ):
                    enum = points(enumerate_group(code, ell, which))
                    assert enum == points(groups[name].elements()), (which, ell)

    def test_criterion_2_uniform_gate_fixture(self, capfd):
        with criterion(capfd, 2, "16-qubit fixture span and gate decompositions"):
            spec = make_mono16_spec()
            css = next(c for n, _, c, e in fixture_combos() if n == "mono16" and e == 3)
            found = groups(css, 3)
            h8 = groups_for(css, 3)["H"]
            span = howell_form(
                [evaluate(4, Monomial.parse(4, t)).to_array() for t in ("1", "x1", "x2")],
                3,
                n=16,
            )
            assert h8.contains_module(span)
            for token, expected in UNIFORM_GATE_FACTORS.items():
                b = evaluate(4, Monomial.parse(4, token)).to_array()
                members, _, dec = found.action(b)
                assert members["H"]
                got = [(tuple(f.qubits), int(f.phase)) for f in dec.factors]
                assert got == expected, token

    def test_criterion_3_closed_forms_equal_generics(self, capfd):
        with criterion(capfd, 3, "closed forms equal kernel computations"):
            for name, spec, css, ell in fixture_combos():
                groups = groups_for(css, ell)
                assert closed_form_fixing_group(spec, ell) == groups["H"], (name, ell)
                if name == "mono16" and ell == 3:
                    # documented: the printed hypotheses fail here (the outer
                    # power chain exhausts the level), so the closed form
                    # must refuse; the raw recursion still matches, which the
                    # refusal correctly declines to promise
                    with pytest.raises(HypothesisError) as exc:
                        closed_form_transversal_identity(spec, ell)
                    assert exc.value.code == "full_power_reached"
                    assert raw_transversal_identity(spec, ell)[0] == groups["T"]
                    assert raw_transversal_identity(spec, ell)[1] == groups["Id"]
                else:
                    t_mod, id_mod = closed_form_transversal_identity(spec, ell)
                    assert t_mod == groups["T"], (name, ell)
                    assert id_mod == groups["Id"], (name, ell)
            for spec, css, ell in decreasing_pool():
                groups = groups_for(css, ell)
                assert closed_form_fixing_group(spec, ell) == groups["H"]
                t_mod, id_mod = closed_form_transversal_identity(spec, ell)
                assert t_mod == groups["T"]
                assert id_mod == groups["Id"]

    def test_criterion_4_reed_muller_corollaries(self, capfd):
        with criterion(capfd, 4, "first-order Reed-Muller generator memberships"):
            css3 = next(c for n, _, c, e in fixture_combos() if n == "rm" and e == 3)
            css2 = next(c for n, _, c, e in fixture_combos() if n == "rm" and e == 2)
            fixing_set = reed_muller_fixing_monomials(4, 0, 1, 3)
            assert len(fixing_set) == 5  # degree at most one
            h8 = groups_for(css3, 3)["H"]
            for u in fixing_set.monomials():
                assert h8.contains(evaluate(4, u).to_array()), u.token
            identity_set = reed_muller_identity_monomials(4, 1, 2)
            assert len(identity_set) == 5
            id4 = groups_for(css2, 2)["Id"]
            for u in identity_set.monomials():
                assert id4.contains(evaluate(4, u).to_array()), u.token

    def test_criterion_5_structural_invariants(self, capfd):
        with criterion(capfd, 5, "nesting, duality, lifting, collapse, realignment"):
            realign_rng = random.Random(POOL_SEED + 1)
            for code, ell in invariant_pool():
                n = code.pair.n
                groups = groups_for(code, ell)
                assert groups["H"].contains_module(groups["T"])
                assert groups["T"].contains_module(groups["Id"])
                for mod in groups.values():
                    assert mod.length + module_perp(mod).length == n * ell
                if ell >= 2:
                    below = groups_for(code, ell - 1)
                    for name in ("H", "T", "Id"):
                        lifted = scale_lift(below[name], ell)
                        assert groups[name].contains_module(lifted), name
                level1 = groups_for(code, 1)
                assert level1["H"] == howell_form(
                    [row.to_array() for row in dual_basis(code.pair.c2).basis], 1, n=n
                )
                assert level1["Id"] == howell_form(
                    [row.to_array() for row in dual_basis(code.pair.c1).basis], 1, n=n
                )
                if code.num_logical <= 1:
                    assert groups["T"] == groups["H"]
                for _ in range(10):
                    repair = realign_pair(code.pair, realign_rng)
                    assert transversal_group(repair, ell) == groups["T"]

    def test_criterion_6_uniform_gate_corollaries(self, capfd):
        with criterion(capfd, 6, "all-ones membership implications and divisibility"):
            for code, ell in invariant_pool():
                report = all_ones_report(code, ell)
                if report.in_fixing_group:
                    assert report.power_dual_contains_inner
                assert report.divisibility is not None
                assert report.in_identity_group == report.divisibility
            rm_css = next(c for n, _, c, e in fixture_combos() if n == "rm" and e == 3)
            positive = all_ones_report(rm_css, 3)
            assert positive.divisibility is True
            assert positive.in_identity_group is True
            hamming = all_ones_report(make_steane7_css(), 1)
            assert hamming.divisibility is False
            assert hamming.in_identity_group is False

    def test_criterion_7_character_shift_transfer(self, capfd):
        with criterion(capfd, 7, "amplitude test transfers through the character shift"):
            base = make_pair2_css()
            shifted = css_from_pair(base.pair, y_z=BitVector.from_string("10"))
            h_base = groups_for(base, 2)["H"]
            h_shifted = fixing_group(shifted, 2)
            for bits in range(16):
                b = np.array([bits & 3, bits >> 2])
                moved, _ = conjugate_by_yz(b, shifted.y_z, 2)
                left = amplitude_fix_check(shifted, 2, b)
                right = amplitude_fix_check(base, 2, moved)
                assert left == right
                assert left == bool(h_shifted.contains(b))
                assert right == bool(h_base.contains(moved))

    def test_criterion_8_phase_reconstruction(self, capfd):
        with criterion(capfd, 8, "controlled-factor expansion rebuilds every coset phase"):
            mono16_css = next(
                c for n, _, c, e in fixture_combos() if n == "mono16" and e == 3
            )
            cases = [(mono16_css, 3)]
            rng = random.Random(POOL_SEED + 3)
            while len(cases) < 6:
                code = random_nested_css(rng, n_max=12, k1_max=11)
                if code.num_logical > 10:
                    continue
                cases.append((code, rng.randrange(1, 3)))
            cases.extend(tiny_pool()[:10])
            # pin the top of the K range: ten logical qubits both with a
            # trivial inner code and with a one-dimensional one
            full10 = rref_basis(
                [BitVector(10, 1 << i) for i in range(10)], n=10
            )
            cases.append((build_css(full10, rref_basis([], n=10)), 2))
            even12 = rref_basis(
                [BitVector(12, 0b11 << i) for i in range(11)], n=12
            )
            cases.append((build_css(even12, rref_basis([BitVector(12, (1 << 12) - 1)], n=12)), 2))
            assert max(code.num_logical for code, _ in cases) == 10
            for code, ell in cases:
                found = groups(code, ell)
                for b in found.module("H").gens:
                    raw = reconstruct_phases(found, b)
                    for v in range(1 << code.num_logical):
                        assert logical_phase(code, ell, b, v) == int(raw[v])

    def test_criterion_9_steane_type_fixture(self, capfd):
        with criterion(capfd, 9, "seven-qubit fixture uniform gate is an odd logical phase"):
            css = make_steane7_css()
            ones = np.ones(7, dtype=np.int64)
            h4 = groups_for(css, 2)["H"]
            assert h4.contains(ones)
            oracle = coset_phase_check(css, 2, ones)
            assert oracle.gate_class is GateClass.TRANSVERSAL
            dec = decompose_action(css, 2, ones)
            factors = [(tuple(f.qubits), int(f.phase)) for f in dec.factors]
            assert factors == [((1,), 3)]
            assert factors[0][1] % 2 == 1
