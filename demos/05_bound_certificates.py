"""Finite-n certificates behind the character estimates.

All checks are exact: rationals compare as rationals, and quantities
u + v*sqrt(n) go through certified integer-interval refinement.  The
degrees of the split irreducibles are checked from the A_n tables by
``ancover verify bounds``, at n <= 24.
"""

from ancover import hook_bound, prop24_certificate

print("almost-derangement clauses (exact; values shown as floats):")
for n in (13, 21, 51, 101, 201):
    rep = prop24_certificate(n)
    print(" ", rep.csv_row(), "all <", "1/2, 1/4, 1/4:", rep.all_ok())

print("\nhook character bound at n=13:")
for k in (2, 3, 4, 5, 6):
    print(f"  size {k}: |chi| <= {hook_bound(13, k)}")
