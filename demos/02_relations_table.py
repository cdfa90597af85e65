"""Render the six relations among the family's three generator classes.

The right-hand column simplifies both sides of each relation; the torsion
classes eta_1, eta_2, eta_3 survive the simplification and are exactly
what distinguishes the seven cover classes from each other.

Run:  python demos/02_relations_table.py
"""

from z2covers import construct_family, relations_table, render_relations_table

for n in (3, 5):
    bd = construct_family(n)
    print(f"n = {n}:")
    print(render_relations_table(relations_table(bd)))
    print()

# The same table catches errors: shift one class by a torsion element and
# the affected rows stop balancing.
from z2covers import single_torsion_mutations

bd = construct_family(3)
character, shift, mutant = next(iter(single_torsion_mutations(bd)))
print(f"after shifting L_{character} by the torsion element {shift}:")
print(render_relations_table(relations_table(mutant)))
