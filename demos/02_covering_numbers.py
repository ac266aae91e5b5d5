"""Covering numbers of split classes, and the kappa statistic.

cn(C) is the least k with C^k equal to the whole group. For a split
class, cn(C) = 2 exactly when the class is real (kappa even) and its
square also catches every nontrivial class; the script reads both
ingredients from one call for the square's counts N_2(g) at every class g
and tabulates them next to the computed covering number.
"""

from ancover import Partition, an_character_table, covering_number, power_counts
from ancover.permutations import ClassLabel
from ancover.permutations import kappa_of_type

for n in range(5, 11):
    table = an_character_table(n)
    identity = ClassLabel(Partition([1] * n))
    for C in table.classes:
        if not C.is_split():
            continue
        kap = kappa_of_type(C.cycle_type)
        square = power_counts(C, 2, table=table)
        real = square[identity] > 0
        total = all(count for g, count in square.items() if g != identity)
        cn = covering_number(C, table=table)
        print(
            f"n={n:2d} {C.text():12s} kappa={kap} real={'y' if real else 'n'} "
            f"square-covers-nontrivial={'y' if total else 'n'} cn={cn}"
        )
