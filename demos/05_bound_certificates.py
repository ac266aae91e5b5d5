"""Finite-n certificates behind the character estimates.

All checks are exact: rationals compare as rationals, and quantities
u + v*sqrt(n) go through certified integer-interval refinement.  The
degrees of the split irreducibles are checked from the A_n tables by
``ancover verify bounds``, at n <= 24.
"""

from ancover import e_profile, hook_bound, prop24_certificate
from ancover.permutations import Permutation
import random

print("almost-derangement clauses (exact; values shown as floats):")
for n in (13, 21, 51, 101, 201):
    rep = prop24_certificate(n)
    print(" ", rep.csv_row(), "all <", "1/2, 1/4, 1/4:", rep.all_ok())

print("\nhook character bound at n=13:")
for k in (2, 3, 4, 5, 6):
    print(f"  size {k}: |chi| <= {hook_bound(13, k)}")

rng = random.Random(0)
images = list(range(1, 101))
rng.shuffle(images)
g = Permutation(images)
prof = e_profile(g)
print("\norbit profile of a random permutation of 100 points:")
print("  cycles of length <= 5:", prof.short_orbit_cycles(5))
for M in (3, 5, 10):
    if prof.satisfies_short_orbit_hypothesis(M):
        print(f"  M={M}: E <= log_n M^2 + 1/(M+1) certified:", prof.check_short_orbit_bound(M))
