"""The three diagonal gate groups and what a member does logically.

A diagonal gate U(b) applies the phase omega^{b_i} to qubit i, with
omega = exp(2 pi i / 2^l). Three nested groups classify the exponent
vectors b:

    Id  -  acts as the identity on the code space,
    T   -  acts as a tensor-product (transversal) gate on the logicals,
    H   -  merely fixes the code space as a set.

Each is the annihilator kernel of explicit constraint vectors, computed
in Howell form. Members of H decompose into controlled-phase factors on
the logical qubits.
"""

import numpy as np

from cssgates import (
    MonomialCodeSpec,
    MonomialSet,
    Monomial,
    evaluate,
    gate_groups,
    groups,
    logical_phase,
    phase_profile,
)

spec = MonomialCodeSpec(
    4,
    MonomialSet.from_tokens(4, ["1", "x1", "x2", "x3", "x4", "x1x2"]),
    MonomialSet.from_tokens(4, ["1"]),
)
css = spec.induced_css()


def show(title):
    print(f"\n=== {title} ===")


show("Group lengths across levels on the [16, 5] fixture")
print(f"{'level':>5} {'modulus':>8} {'H':>4} {'T':>4} {'Id':>4}")
levels = {ell: gate_groups(css, ell) for ell in (1, 2, 3)}
for ell, (h, t, i) in levels.items():
    assert h.contains_module(t) and t.contains_module(i)
    print(f"{ell:>5} {1 << ell:>8} {h.length:>4} {t.length:>4} {i.length:>4}")
print("Id <= T <= H holds at every level (asserted above).")

show("The uniform gate at level 3 (a pi/8-type gate on every qubit)")
ones = evaluate(4, 0).to_array()  # ev(1) = all ones
h8, t8, id8 = levels[3]
found = groups(css, 3)  # one object answers memberships and actions
print("ev(1) in H_8:", bool(h8.contains(ones)))
print("ev(1) in T_8:", bool(t8.contains(ones)))

show("Its logical action, factor by factor")
members, global_phase, dec = found.action(ones)
print("global phase exponent:", global_phase)
for f in dec.factors:
    qubits = ",".join(map(str, f.qubits))
    kind = "Z-type phase" if len(f.qubits) == 1 else "controlled phase"
    print(f"  on logicals ({qubits}): omega^{f.phase}   ({kind})")
print("Controlled factors on several logicals mean the gate is NOT a")
print("tensor product on the logical qubits - it is in H but not in T.")

show("Reconstructing a coset phase from the factors")
v = 0b10100  # logical bits (x3 slot and x1x2 slot set)
expect = global_phase
for f in dec.factors:
    if all(v >> (q - 1) & 1 for q in f.qubits):
        expect += f.phase
expect %= 8
print(f"sum of factors on v=10100 gives omega^{expect}")
print(f"logical_phase reports        omega^{logical_phase(css, 3, ones, v)}")

show("A genuinely transversal member, from the T group's own generators")
sample = next(g for g in t8.gens if not id8.contains(g))
_, _, dec2 = found.action(sample)
print("generator:", [int(x) for x in sample])
print("factors:", [(tuple(f.qubits), int(f.phase)) for f in dec2.factors])
print("Every factor acts on a single logical qubit, as a transversal gate must.")

show("ev(x1) is also in H but not additive")
bx1 = evaluate(4, Monomial.parse(4, "x1")).to_array()
p = phase_profile(css, 3, bx1)
print("in H:", p.in_fixing_group, "| one-hot phases:",
      [int(p.phases[1 << i]) for i in range(5)])
print("phase on coset 00110:", int(p.phases[0b00110]),
      "but its one-hots sum to", int(p.phases[0b00010] + p.phases[0b00100]) % 8)
print("-> constant on every coset, yet not additive across cosets: in H, not in T.")
