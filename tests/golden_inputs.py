"""The building-data documents that the runs of tests/data/golden_runs.txt read.

``tests/test_cli.py`` imports :func:`documents`; run as a script, the module
writes each document to a file named after it in the current directory:

    PYTHONPATH=src python tests/golden_inputs.py
"""

from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.serialize import dumps


def documents():
    """Each document's name, as the runs give it, mapped to its building data."""
    family3 = construct_family(3)
    mutants = list(single_torsion_mutations(family3))
    points = family3.points_c
    return {
        "family3": family3,
        "mutant3": mutants[0][2],
        # L111 shifted by eta1: no row of the six names L111, yet the table fails.
        "mutant111": next(mutant for chi, t, mutant in mutants
                          if str(chi) == "111" and t.tors == (1, 0)),
        # F1_1, which no fiber names, with its first free coordinate raised by 1:
        # verify accepts it, and the table reads 2ΣF_ii from D111, so it passes too.
        "edited_f11": family3._replace(points_c={
            **points, "F1_1": points["F1_1"] + family3.group_spec.free_generator(0)
        }),
        # F1_1 given F1's class: the registry is checked whole, so two registered
        # points of one class fail smoothness though no fiber names F1_1.
        "f11_as_f1": family3._replace(points_c={**points, "F1_1": points["F1"]}),
        "etale3": construct_etale(3),
        "etale8": construct_etale(8),
        # L00001 shifted by the last torsion generator: the 45 pairs that
        # hold it in one slot or as their product fail.
        "mutant_etale5": next(single_torsion_mutations(construct_etale(5)))[2],
        # L00000001 shifted the same way: 381 pairs fail, listed from G(8)'s defects.
        "mutant_etale8": next(single_torsion_mutations(construct_etale(8)))[2],
    }


if __name__ == "__main__":
    for name, bd in documents().items():
        with open(name, "w", encoding="utf-8") as handle:
            handle.write(dumps(bd))
