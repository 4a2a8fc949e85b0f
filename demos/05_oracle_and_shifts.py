"""The brute-force oracle, membership witnesses, and character shifts.

Everything the kernel route computes can be recomputed with no linear
algebra at all: enumerate all gates, apply each to every basis state,
and watch what happens. That is the oracle. It is slow and proud of it -
its entire value is sharing no code with the fast route. The demo ends
with shifted codes (nonzero y_z) and a seven-qubit code whose uniform
gate is a logical phase gate.
"""

import numpy as np

from cssgates import (
    BitVector,
    aligned_bases,
    build_css,
    conjugate_by_yz,
    coset_phase_check,
    css_from_pair,
    decompose_action,
    dual_basis,
    enumerate_group,
    fixing_group,
    gate_groups,
    rref_basis,
)
from cssgates.oracle import amplitude_fix_check


def show(title):
    print(f"\n=== {title} ===")


def bits(*rows):
    return [BitVector.from_string(r) for r in rows]


show("Exhaustive enumeration on a two-qubit code, level 2")
c1 = rref_basis(bits("11", "10"), n=2)
c2 = rref_basis(bits("11"), n=2)
css = build_css(c1, c2)
for which in ("fixing", "transversal", "identity"):
    members = sorted(map(tuple, enumerate_group(css, 2, which).tolist()))
    print(f"{which:>12}: {members}")
module = fixing_group(css, 2)
print("kernel route agrees:",
      sorted(map(tuple, np.asarray(list(module.elements())).tolist()))
      == sorted(map(tuple, enumerate_group(css, 2, "fixing").tolist())))

show("Witnesses: why a gate is rejected")
res = coset_phase_check(css, 2, np.array([1, 3]))
print("gate (1,3):", res.gate_class.value)
print("witness:", res.witness)
print("-> the codeword 10 in coset 1 picks up phase 1 while the coset's")
print("   representative demands 3; the phase is not constant on the coset.")

res = coset_phase_check(css, 2, np.array([2, 2]))
print("gate (2,2):", res.gate_class.value, "| per-coset phases:", res.phases.tolist())

show("Shifted codes: a nonzero y_z twists the basis states")
shifted = css_from_pair(css.pair, y_z=BitVector.from_string("10"))
print("membership moves by negating the shifted coordinates:")
print(f"{'gate':>8} {'shifted code':>14} {'conjugate in base':>18}")
for raw in ((1, 0), (2, 2), (3, 1), (1, 1)):
    b = np.array(raw)
    moved, scalar = conjugate_by_yz(b, shifted.y_z, 2)
    left = amplitude_fix_check(shifted, 2, b)
    right = amplitude_fix_check(css, 2, moved)
    assert left == right
    print(f"{str(raw):>8} {str(left):>14} {str(right):>18}")

show("A seven-qubit code whose uniform gate is a logical S-dagger")
checks = bits("1010101", "0110011", "0001111")
inner = rref_basis(checks, n=7)
outer = dual_basis(inner)
pair = aligned_bases(outer, inner)
steane = css_from_pair(pair)
ones = np.ones(7, dtype=np.int64)
print("n=7, K =", steane.num_logical, "| all-ones gate at level 2 (S on every qubit)")
oracle = coset_phase_check(steane, 2, ones)
print("oracle class:", oracle.gate_class.value)
_, t4, _ = gate_groups(steane, 2)
dec = decompose_action(steane, 2, ones)
(factor,) = dec.factors
print(f"logical action: omega^{factor.phase} on logical qubit {factor.qubits[0]}"
      f"  (odd -> a genuine phase gate, S^{factor.phase} up to global phase)")
print("in T:", bool(t4.contains(ones)))
