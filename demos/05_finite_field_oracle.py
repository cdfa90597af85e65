"""Re-check the abstract group identities with honest curve arithmetic.

The group model is free-by-finite; a curve over a prime field is neither.
Still, the oracle evaluates finitely many elements, so the generators'
images are certified on exactly those before they are used: distinct
registered points stay distinct, and a relation the model finds broken
stays broken on the curve.  The curve
y^2 = x^3 - x has full 2-torsion over every prime field (its cubic always
splits), which is what the eta classes need.

Run:  python demos/05_finite_field_oracle.py
"""

from z2covers import (
    CurveOverFp,
    construct_family,
    find_assignment,
    realize,
    single_torsion_mutations,
)

curve = CurveOverFp(2003, -1, 0)
order, (d1, d2) = curve.group_structure()
print(f"{curve}")
print(f"  {order} points (found by exhaustive enumeration)")
full_two_torsion = d1 % 2 == 0  # E[2] = Z/2 x Z/2 exactly when 2 divides d1
print(f"  group structure Z/{d1} x Z/{d2}, full 2-torsion: {full_two_torsion}")

bd = construct_family(3)
assignment = find_assignment(bd, curve)
print(f"\nassigned {len(assignment.free_points)} free generators and "
      f"{len(assignment.torsion_points)} torsion generators")
print(f"  torsion images: {', '.join(repr(points) for points in assignment.torsion_points)}")

outcome = realize(bd, curve, assignment)
print(f"\nrealization: {outcome.relations_checked} relations re-checked on the curve")
print(f"  injective points: {outcome.injective}, torsion faithful: {outcome.torsion_faithful}")
print(f"  verdict: {'confirmed' if outcome.ok else 'REFUTED'}")

rejected = 0
for character, shift, mutant in single_torsion_mutations(bd):
    if not realize(mutant, curve, assignment).ok:
        rejected += 1
print(f"\nmutation screen: {rejected} of 21 corrupted variants rejected by the curve")
