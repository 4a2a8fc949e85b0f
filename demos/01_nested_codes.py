"""Nested binary codes, star products, and aligned bases.

Everything downstream starts from a pair of nested binary codes
C2 inside C1. This walkthrough builds two such pairs - a two-qubit toy
and the [16, 5] Reed-Muller pair - and shows the vector and code
primitives the rest of the library leans on.
"""

from cssgates import (
    BitVector,
    MonomialCodeSpec,
    MonomialSet,
    aligned_bases,
    dual_basis,
    evaluate,
    reed_muller_set,
    rref_basis,
    schur_power,
    star_family,
)


def show(title):
    print(f"\n=== {title} ===")


show("Bit vectors and the star (componentwise) product")
u = BitVector.from_string("110110")
v = BitVector.from_string("011010")
print(f"u        = {u.to_string()}  (weight {u.weight})")
print(f"v        = {v.to_string()}")
print(f"u xor v  = {(u ^ v).to_string()}")
print(f"u star v = {(u & v).to_string()}   <- support is the intersection")

show("A two-qubit nested pair")
c1 = rref_basis([BitVector.from_string("11"), BitVector.from_string("10")], n=2)
c2 = rref_basis([BitVector.from_string("11")], n=2)
pair = aligned_bases(c1, c2)
print(f"C1 = full space F_2^2 (k1 = {c1.k}); C2 = repetition code (k2 = {c2.k})")
print("inner basis rows :", [r.to_string() for r in pair.beta2])
print("extension rows   :", [r.to_string() for r in pair.beta1_ext])
print(f"logical qubits K = k1 - k2 = {pair.num_logical}")
print("The extension row is the coset representative of the single logical qubit.")

show("Dual codes")
d2 = dual_basis(c2)
print("C2^perp basis    :", [r.to_string() for r in d2.basis])
print(f"dim C2 + dim C2^perp = {c2.k} + {d2.k} = {c2.k + d2.k} = n")

show("The [16, 5] monomial fixture")
spec = MonomialCodeSpec(
    4,
    MonomialSet.from_tokens(4, ["1", "x1", "x2", "x3", "x4", "x1x2"]),
    MonomialSet.from_tokens(4, ["1"]),
)
big = spec.induced_pair()
print(f"n = {big.n}, k1 = {big.c1.k}, k2 = {big.c2.k}, K = {big.num_logical}")
print("Rows are monomial evaluations over F_2^4; x1 is the low digit of the")
print("point index, so ev(x1) =", evaluate(4, 1).to_string())

show("Star powers of a code (Schur powers)")
sq = schur_power(big.c1, 2)
print(f"dim C1 = {big.c1.k}; dim C1^(star 2) = {sq.k}")
print("The square contains products like ev(x1)*ev(x2) = ev(x1x2):")
prod = evaluate(4, 1) & evaluate(4, 2)
print("  ev(x1) star ev(x2) in C1^2:", sq.contains(prod))

show("Star families: r-fold products of aligned basis rows")
fam = star_family(big.beta1_ext, 2)
print(f"pairwise star products of the {big.num_logical} extension rows:",
      len(fam), "distinct vectors")
print("These products generate the constraints behind the gate groups;")
print("see demos/03_gate_groups.py.")

show("Reed-Muller sets")
rm1 = reed_muller_set(4, 1)
print("RM(1,4) monomials:", rm1.tokens())
