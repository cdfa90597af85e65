"""File format round trips and completion from generator classes.

The canonical JSON format is what the command line tools exchange:

    z2covers construct --n 3 --out family3.bd.json
    z2covers verify family3.bd.json --oracle
    z2covers table family3.bd.json
    z2covers sweep 2..10

Run:  python demos/06_building_data_files.py
"""

from z2covers import (
    Character,
    construct_family,
    derive_from_generators,
    verify_relations,
)
from z2covers.serialize import dumps, loads

bd = construct_family(3)
text = dumps(bd)
print(f"serialized building data: {len(text)} bytes, "
      f"{len(text.splitlines())} lines of canonical JSON")

again = loads(text)
print(f"parse -> emit is byte-identical: {dumps(again) == text}")
print(f"parsed data verifies: {verify_relations(again).ok}")

# the three generator classes and the branch divisors pin down everything
generators = {chi: bd.L[chi] for chi in map(Character.from_string, ("100", "010", "001"))}
derived = derive_from_generators(
    generators,
    dict(bd.D),
    group_spec=bd.group_spec,
    points_c=dict(bd.points_c),
    points_p1=bd.points_p1,
)
print(f"derived classes agree with the stored table: {dict(derived.L) == dict(bd.L)}")
