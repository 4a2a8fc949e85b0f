"""Canonical modules over Z mod 2^l: Howell forms, kernels, and lengths.

Gate groups live in (Z_{2^l})^n, which is not a field: rows can be zero
divisors, and Gaussian elimination does not give a canonical form. The
Howell normal form does, so module equality and membership become exact
comparisons. The "length" of a module replaces dimension and obeys the
same duality as binary codes.
"""

import numpy as np

from cssgates import (
    howell_form,
    kernel_perp,
    module_sum,
    scale_lift,
    zvector_to_text,
)


def show(title):
    print(f"\n=== {title} ===")


show("Howell form is canonical")
rows_a = [[2, 2, 0], [0, 4, 4], [1, 1, 1]]
rows_b = [[1, 1, 1], [2, 6, 4], [0, 4, 4], [3, 3, 3]]
ma = howell_form(rows_a, 3, n=3)  # level 3 -> arithmetic mod 8
mb = howell_form(rows_b, 3, n=3)
print("generators A:", rows_a)
print("generators B:", rows_b)
print("same module? ", ma == mb)
print("canonical generators:", [list(map(int, r)) for r in ma.gens])

show("Membership without enumeration")
print("contains (3,7,5)?", bool(ma.contains(np.array([3, 7, 5]))))
print("contains (1,0,0)?", bool(ma.contains(np.array([1, 0, 0]))))

show("Length replaces dimension")
print(f"lambda(A) = {ma.length}; the module has 2^{ma.length} = {2 ** ma.length} elements")
print("elements:", len(list(ma.elements())))

show("Annihilator kernels and length duality")
perp = kernel_perp(ma.gens, 3, n=3)
print("A^perp generators:", [list(map(int, r)) for r in perp.gens])
print(f"lambda(A) + lambda(A^perp) = {ma.length} + {perp.length} = {ma.length + perp.length}")
print(f"n * l = 3 * 3 = 9  <- equality holds for every module")
double = kernel_perp(perp.gens, 3, n=3)
print("double annihilator returns A:", double == ma)

show("Sum of modules")
extra = howell_form([[0, 0, 2]], 3, n=3)
total = module_sum(ma, extra)
print(f"lambda grows from {ma.length} to {total.length}")

show("Scale lifting between levels")
level2 = howell_form([[1, 3], [0, 2]], 2, n=2)
lifted = scale_lift(level2, 3)
print("level-2 module generators:", [list(map(int, r)) for r in level2.gens])
print("doubled into level 3     :", [list(map(int, r)) for r in lifted.gens])
print("Gate groups nest through this map level by level;")
print("the acceptance suite checks scale_lift(group at l-1) inside group at l.")

show("Text round trip")
text = zvector_to_text(np.array([1, 0, 7]))
print("vector as text:", text)
