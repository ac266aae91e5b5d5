"""Products of two n-cycle classes in A_n cover everything nontrivial.

For odd n, the n-cycles split into two A_n classes. This script runs the
exact Frobenius count for every target class and all three class pairs,
reproducing the desk-scale refinement of Gleason's theorem.
"""

from ancover import Partition, an_character_table, frobenius_count
from ancover.suites import ncycle_pairs
from ancover.permutations import ClassLabel

for n in (7, 9, 11, 13):
    table = an_character_table(n)
    identity = ClassLabel(Partition([1] * n))
    print(f"A_{n}: {len(table.classes)} classes")
    for C, D in ncycle_pairs(n):
        misses = [
            E
            for E in table.classes
            if E != identity and frobenius_count(C, D, E, table=table) == 0
        ]
        status = "covers all nontrivial classes" if not misses else f"misses {misses}"
        print(f"  {C} * {D}: {status}")

# The famous boundary case: in A_5 the square of one 5-cycle class
# misses the double-transposition class.
table = an_character_table(5)
C = ClassLabel(Partition((5,)), "+")
g = ClassLabel(Partition((2, 2, 1)))
print("\nA_5 exception:")
print(f"  count in {C} * {C} of {g}: {frobenius_count(C, C, g, table=table)}")
D = ClassLabel(Partition((5,)), "-")
print(f"  count in {C} * {D} of {g}: {frobenius_count(C, D, g, table=table)}")
