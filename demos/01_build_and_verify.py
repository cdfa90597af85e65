"""Build one member of the cover family and walk through its verification.

Run:  python demos/01_build_and_verify.py
"""

from z2covers import (
    canonical_map_degree,
    compute_invariants,
    construct_family,
    verify_relations,
    verify_smoothness,
)

n = 3
bd = construct_family(n)
print(f"building data for n = {n}")
print(f"  group model: Z^{bd.group_spec.rank} + Z/2 + Z/2")
print(f"  registered points on C: {len(bd.points_c)}, on P1: {len(bd.points_p1)}")

# Every unordered pair of nontrivial characters must satisfy the cover
# relation; the diagonal pairs encode the 2-divisibility of the branches.
relations = verify_relations(bd)
print(f"\nrelations: {relations.pairs_checked} pairs checked, ok = {relations.ok}")

smoothness = verify_smoothness(bd)
print(
    f"smoothness: reduced = {smoothness.reduced}, "
    f"injective points = {smoothness.injective_points}, snc = {smoothness.snc}, "
    f"independent crossings = {smoothness.independent_crossings}"
)

invariants = compute_invariants(bd)
print(
    f"\ninvariants: K^2 = {invariants.k_squared}, p_g = {invariants.p_g}, "
    f"chi(O) = {invariants.chi}, q = {invariants.q}"
)
print("sections by character:")
for chi, value in sorted(invariants.h0_by_character.items()):
    print(f"  h0(K_Y + L_{chi}) = {value}")

contributing = [str(chi) for chi, value in invariants.h0_by_character.items() if value]
print(f"\ncontributing characters: {contributing}")

canonical = canonical_map_degree(bd)
print(
    f"canonical map: degree {canonical.degree} onto an image of degree "
    f"{canonical.image_degree}, base point free = {canonical.base_point_free}"
)

# 2 K_X is the pullback of S = 2 K_Y + sum of the D_sigma, which is nef
# and big exactly when it meets both rulings positively.
print(f"\nminimality: K_X nef and big = {invariants.nef_and_big} (then X is minimal of general type)")
