"""Closed-form gate groups for decreasing monomial codes - and the guard
rails that keep them honest.

For divisibility-closed monomial codes the three groups have recursive
closed forms built from scaled monomial evaluations. Their hypotheses
are real: this demo shows a code where the recursion's output is WRONG,
caught by the validator's pairing check, and how the library degrades
gracefully (falls back to the kernel route and says why).
"""

from cssgates import (
    HypothesisError,
    MonomialCodeSpec,
    MonomialSet,
    closed_form_fixing_group,
    closed_form_fixing_group_general,
    closed_form_transversal_identity,
    decreasing_span_monomials,
    evaluate,
    fixing_group,
    gate_groups,
    monomial_action,
    reed_muller_degrees,
    reed_muller_fixing_monomials,
    validate_fixing_hypotheses,
)
from cssgates.monomial import _complement_form, _reach_levels


def show(title):
    print(f"\n=== {title} ===")


def spec_of(m, outer, inner):
    return MonomialCodeSpec(
        m, MonomialSet.from_tokens(m, outer), MonomialSet.from_tokens(m, inner)
    )


show("Closed form == kernel route on the Reed-Muller pair")
rm = spec_of(4, ["1", "x1", "x2", "x3", "x4"], ["1"])
css = rm.induced_css()
for ell in (1, 2, 3):
    validate_fixing_hypotheses(rm, ell)  # raises if out of scope
    closed = closed_form_fixing_group(rm, ell)
    h_gen, t_gen, id_gen = gate_groups(css, ell)
    t_mod, id_mod = closed_form_transversal_identity(rm, ell)
    print(f"level {ell}: H match {closed == h_gen}, "
          f"T match {t_mod == t_gen}, "
          f"Id match {id_mod == id_gen}")

show("A spec where the recursion is wrong - and gets caught")
gap = spec_of(4, ["1", "x1", "x4"], ["1", "x1"])
try:
    validate_fixing_hypotheses(gap, 2)
except HypothesisError as exc:
    print(f"validator refuses: code={exc.code}, level={exc.level}")
# what the formula would produce from the inner reach table, unchecked
raw = _complement_form(gap, 2, _reach_levels(gap.n, gap.inner.masks, gap.outer.masks, 1))
true = fixing_group(gap.induced_css(), 2)
print(f"recursion output length {raw.length}, true group length {true.length}")
print("equal lengths, but equal modules?", raw == true)
bad = evaluate(4, 0b1101).to_array()  # ev(x1x3x4), a head generator
print("recursion claims ev(x1x3x4) is in H:", bool(raw.contains(bad)))
print("the true group says:               ", bool(true.contains(bad)))

show("The level-agnostic general formula knows its own limits")
try:
    closed_form_fixing_group_general(gap)
except HypothesisError as exc:
    print(f"general form refuses too: {exc.code} (level {exc.level})")
match = spec_of(2, ["1", "x1", "x1x2"], ["x1x2"])
res = closed_form_fixing_group_general(match)
print(f"on a conforming spec it picks level {res.ell} and matches:",
      res.module == fixing_group(match.induced_pair(), res.ell))

show("Span candidates from the divisibility sieve")
mono16 = spec_of(4, ["1", "x1", "x2", "x3", "x4", "x1x2"], ["1"])
sieve = decreasing_span_monomials(mono16, 3)
h8 = fixing_group(mono16.induced_css(), 3)
print("level-3 candidates:", sieve.tokens())
print("all its evaluations are in H_8:",
      all(h8.contains(evaluate(4, u).to_array()) for u in sieve.monomials()))
print("(On the gap spec above the same sieve produces vectors outside H -")
print(" candidates are a claim to test, not a certificate.)")

show("Per-monomial logical action in closed form")
act = monomial_action(mono16, 3, "1")
print("gate ev(1), level 3: degree-1 coefficient per logical generator:",
      act.coefficients.tolist())
print("in fixing group:", act.in_fixing_group,
      "| transversal:", act.in_transversal_group)

show("Reed-Muller degree bounds")
print("recognized degrees of the RM pair:", reed_muller_degrees(rm))
good = reed_muller_fixing_monomials(4, 0, 1, 3)
print("monomials guaranteed in H_8:", good.tokens())
try:
    reed_muller_fixing_monomials(4, 1, 1, 4)
except HypothesisError as exc:
    print(f"out-of-range parameters refuse cleanly: {exc.code}")
