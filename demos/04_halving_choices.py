"""Each halved fiber admits four halvings; the surface does not care.

The class of F_i + F_i' is divisible by 2 in four different ways, one per
2-torsion element of the group model.  Different choices move the F_ii
points and twist the cover classes, yet every choice verifies and yields
the same invariants.

Run:  python demos/04_halving_choices.py
"""

import itertools

from z2covers import (
    compute_invariants,
    construct_family,
    halvings,
    verify_relations,
    verify_smoothness,
)

bd = construct_family(3)
spec = bd.group_spec

# the four halvings of F_1 + F_1', computed directly in the group model
target = bd.points_c["F1"] + bd.points_c["F1'"]
solutions = halvings(target)
print(f"2y = [F1] + [F1'] has {len(solutions)} solutions:")
for y in solutions:
    print(f"  {y}")

reference = compute_invariants(bd)
print(f"\nreference invariants: K^2 = {reference.k_squared}, p_g = {reference.p_g}, "
      f"chi(O) = {reference.chi}, q = {reference.q}")

agreeing = 0
for choice in itertools.product(range(4), repeat=3):
    variant = construct_family(3, choice)
    assert verify_relations(variant).ok
    assert verify_smoothness(variant).snc
    assert compute_invariants(variant) == reference
    agreeing += 1
print(f"all {agreeing} halving choices verify with identical invariants")
