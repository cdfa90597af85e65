"""Build one member of the cover family and walk through its verification.

Run:  python demos/01_build_and_verify.py
"""

from z2covers import (
    canonical_map_degree,
    canonical_system,
    compute_invariants,
    construct_family,
    minimality_evidence,
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

description = canonical_system(bd)
print(f"\ncontributing characters: {[str(c) for c in description.contributing]}")

canonical = canonical_map_degree(bd)
print(
    f"canonical map: degree {canonical.degree} onto an image of degree "
    f"{canonical.image_degree}, base point free = {canonical.base_point_free}"
)

evidence = minimality_evidence(bd)
print(
    f"\nminimality: S.S = {evidence.self_intersection} > 0 and every test curve "
    f"meets S nonnegatively -> nef and big = {evidence.nef_and_big}"
)
