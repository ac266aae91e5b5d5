"""Batch verification suites behind ``ancover verify``.

Each ``suite_*`` returns (name, passed, detail) items, and
:func:`split_coverage_report` returns report lines and whether brute
force agrees (None when it compared nothing); the acceptance tests call
these directly.  A suite's parameters are the ``verify`` options it
takes.  The gleason, prop24, split-coverage and oracle-equiv loops ask
the class-product kernel (:func:`~ancover.classalgebra.product_counts`
or :func:`~ancover.classalgebra.covers`) once per class pair and read
every target class from that answer.  Where the brute-force oracle
reaches (n <= 9) it checks those answers the same way: one
:func:`~ancover.oracle.brute_product_counts` pass per pair gives the
pair's count for every target class.
"""

from __future__ import annotations

import math
import random

from ancover.bounds import (
    PROP24_RANGE,
    hook_bound,
    prop24_certificate,
    prop24_monotone_decreasing,
)
from ancover.characters import (
    TABLE_LIMIT,
    CharacterTable,
    an_character_table,
    check_table_limit,
    hook_size,
    mn_values,
)
from ancover.classalgebra import covering_number, covers, product_counts
from ancover.combinatorics import Partition, enumerate_partitions, frobenius_symbol
from ancover.constructor import construct_witnesses
from ancover.oracle import ORACLE_LIMIT, brute_product_counts
from ancover.permutations import ClassLabel


def ncycle_pairs(n: int) -> list[tuple[ClassLabel, ClassLabel]]:
    plus = ClassLabel(Partition((n,)), "+")
    minus = ClassLabel(Partition((n,)), "-")
    return [(plus, plus), (plus, minus), (minus, minus)]


def _odd_degrees(ns, least: int, suite: str) -> list[int]:
    """ns in increasing order; ValueError unless every n is odd, at least
    least and within the table limit, so that a suite refuses a degree
    before it builds any table."""
    ns = sorted(ns)
    bad = [n for n in ns if n % 2 == 0 or n < least]
    if bad:
        raise ValueError(f"{suite} needs odd n >= {least}, got n = {bad[0]}")
    check_table_limit(*ns)
    return ns


def suite_gleason(ns=(7, 9, 11, 13)) -> list[tuple[str, bool, str]]:
    """Products of two n-cycle classes hit every nontrivial class."""
    items = []
    for n in _odd_degrees(ns, 7, "gleason"):
        table = an_character_table(n)
        misses = [
            (C, D, E)
            for C, D in ncycle_pairs(n)
            for E in covers(C, D, table=table).uncovered
        ]
        ok = not misses
        detail = "all nontrivial classes hit" if ok else f"missed: {misses[:3]}"
        items.append((f"gleason n={n}", ok, detail))
    return items


def suite_ancn(ns=(5, 7, 9, 11, 13)) -> list[tuple[str, bool, str]]:
    """Covering numbers of n-cycle classes: 2 iff n = 1 mod 4 and n >= 7."""
    items = []
    for n in _odd_degrees(ns, 5, "ancn"):
        expected = 2 if (n % 4 == 1 and n >= 7) else 3
        table = an_character_table(n)
        values = {
            covering_number(ClassLabel(Partition((n,)), s), table=table) for s in "+-"
        }
        ok = values == {expected}
        items.append((f"ancn n={n}", ok, f"cn = {sorted(values)}, expected {expected}"))
    return items


def _few_fix_classes(table: CharacterTable) -> list[ClassLabel]:
    identity = ClassLabel(Partition([1] * table.n))
    return [
        E
        for E in table.classes
        if E != identity and E.cycle_type.ones() <= 1
    ]


def suite_prop24(ns=(5, 7, 9, 11)) -> list[tuple[str, bool, str]]:
    """Classes with at most one fixed point are covered by the n-cycle
    type, except exactly the 2,2,1 class of A_5; brute force confirms the
    n = 5 and n = 7 findings."""
    items = []
    exception = Partition((2, 2, 1))
    for n in _odd_degrees(ns, 5, "prop24"):
        table = an_character_table(n)
        pairs = ncycle_pairs(n)
        counts = [product_counts(C, D, table=table) for C, D in pairs]
        targets = _few_fix_classes(table)
        bad = []
        for E in targets:
            covered = all(c[E] > 0 for c in counts)
            expect = not (n == 5 and E.cycle_type == exception)
            if covered != expect:
                bad.append((E, covered))
        ok = not bad
        items.append(
            (f"prop24 n={n}", ok, "matches the known exception set" if ok else f"{bad}")
        )
        if n in (5, 7):
            confirmed = all(
                c == brute_product_counts(C, D) for (C, D), c in zip(pairs, counts)
            )
            items.append(
                (f"prop24 oracle n={n}", confirmed, "brute force agrees")
            )
    return items


def random_construction_instance(rng: random.Random) -> tuple[Partition, Partition]:
    """Seeded (lam, mu): lam distinct odd parts, k <= 4, n <= 60,
    mu an even type with at least 8k+9 fixed points."""
    while True:
        k = rng.randint(1, 4)
        odds = list(range(3, 31, 2))
        parts = sorted(rng.sample(odds, k), reverse=True)
        n = sum(parts)
        if not (8 * k + 13 <= n <= 60):
            continue
        lam = Partition(parts)
        budget = n - (8 * k + 9)
        support = rng.randint(4, min(budget, 24))
        mu_parts: list[int] = []
        remaining = support
        while remaining >= 2:
            p = rng.randint(2, min(9, remaining))
            if remaining - p == 1:
                continue
            mu_parts.append(p)
            remaining -= p
        mu_parts += [1] * (n - sum(mu_parts))
        mu = Partition(sorted(mu_parts, reverse=True))
        if not mu.is_even_type() or mu.ones() == n:
            continue
        if mu.ones() < 8 * k + 9:
            continue
        return lam, mu


def suite_construction(trials=200, seed=42) -> list[tuple[str, bool, str]]:
    """Seeded random witness constructions, every invariant verified."""
    rng = random.Random(seed)
    failures = 0
    done = 0
    first_err = ""
    for i in range(trials):
        lam, mu = random_construction_instance(rng)
        try:
            pair = construct_witnesses(lam, mu, seed=seed + i)
            pair.verify()
        except Exception as exc:  # any failure is a suite failure
            failures += 1
            if not first_err:
                first_err = f"lam={lam.text()} mu={mu.text()}: {exc}"
        done += 1
    ok = failures == 0
    detail = f"{done - failures}/{done} verified" + (f"; first: {first_err}" if first_err else "")
    return [(f"construction trials={trials} seed={seed}", ok, detail)]


def suite_oracle_equiv() -> list[tuple[str, bool, str]]:
    """Class-product counts vs brute force on every triple for n = 5..9:
    one oracle pass per unordered class pair, checked against the kernel
    in both orders."""
    items = []
    for n in range(5, ORACLE_LIMIT + 1):
        table = an_character_table(n)
        labels = table.classes
        bad = 0
        for i, C in enumerate(labels):
            for D in labels[i:]:
                brute = brute_product_counts(C, D)
                bad += product_counts(C, D, table=table) != brute
                bad += product_counts(D, C, table=table) != brute
        items.append(
            (f"oracle-equiv n={n} exhaustive", bad == 0, f"{len(labels) ** 3} triples")
        )
    return items


def suite_bounds() -> list[tuple[str, bool, str]]:
    """Certificates: the almost-derangement clauses on odd [13, 201],
    hook-bound dominance for n <= 13 and the degrees of the split
    irreducibles of the A_n tables."""
    items = []
    reports = [prop24_certificate(n) for n in PROP24_RANGE]
    failed = [r.n for r in reports if not r.all_ok()]
    detail = f"a clause fails at n = {failed[0]}" if failed else "all clauses exact"
    first, last = PROP24_RANGE[0], PROP24_RANGE[-1]
    items.append((f"prop24 odd n in [{first},{last}]", not failed, detail))
    items.append(
        (
            "prop24 weakly decreasing",
            prop24_monotone_decreasing(reports),
            "clause values compared exactly",
        )
    )

    dom_ok = True
    for n in range(2, 14):
        hooks = [Partition((n - j,) + (1,) * j) for j in range(n)]
        for mu in enumerate_partitions(n):
            if mu.ones() > 1:
                continue
            for lam, value in zip(hooks, mn_values(hooks, mu)):
                if abs(value) > hook_bound(n, hook_size(lam)):
                    dom_ok = False
    items.append(("hook bound dominance n<=13", dom_ok, "exhaustive table scan"))

    # The degrees of the split irreducibles bound their share of a class
    # product; each is read from its table as built.
    split_ok = True
    for n in range(5, TABLE_LIMIT + 1):
        table = an_character_table(n)
        plus = [i for i, chi in enumerate(table.irreducibles) if chi.sign == "+"]
        degrees = table.degrees()
        half_factorial = math.factorial((n - 1) // 2)
        split_ok &= 4 * n * min(degrees[i] for i in plus) >= 2**n
        for i in plus:
            arms = frobenius_symbol(table.irreducibles[i].partition).arms
            split_ok &= half_factorial % math.prod(map(math.factorial, arms)) == 0
    items.append(
        (
            f"split degrees n in [5,{TABLE_LIMIT}]",
            split_ok,
            "4n * min chi(1) >= 2^n and prod arms! divides floor((n-1)/2)!"
            " over the + split irreducibles",
        )
    )

    return items


# The suites that return (name, passed, detail) items, in CLI order.
SUITES = {
    "gleason": suite_gleason,
    "ancn": suite_ancn,
    "prop24": suite_prop24,
    "construction": suite_construction,
    "oracle-equiv": suite_oracle_equiv,
    "bounds": suite_bounds,
}


def split_coverage_report(ns=tuple(range(8, 17))) -> tuple[list[str], bool | None]:
    """For each n, the split-class pairs whose product misses a
    nontrivial class (report only); brute force must agree at n <= 9.
    The verdict is None when brute force compared nothing: no n <= 9 was
    given, or none of them has a split type (only n = 2 has none)."""
    check_table_limit(*sorted(ns))  # before any table is built
    lines: list[str] = []
    checked = mismatched = 0
    for n in sorted(ns):
        table = an_character_table(n)
        nontrivial = [E for E in table.classes if E.cycle_type.ones() != n]
        split_types = sorted(
            {c.cycle_type.parts for c in table.classes if c.is_split()}, reverse=True
        )
        for t in split_types:
            p = Partition(t)
            labels = [ClassLabel(p, "+"), ClassLabel(p, "-")]
            for i, C in enumerate(labels):
                for D in labels[i:]:
                    report = covers(C, D, table=table)
                    if report.covered:
                        lines.append(f"n={n} {C} * {D}: covers all nontrivial classes")
                    else:
                        missing = ",".join(str(e) for e in report.uncovered)
                        lines.append(f"n={n} {C} * {D}: misses {missing}")
                    if n <= ORACLE_LIMIT:
                        brute = brute_product_counts(C, D)
                        for E in nontrivial:
                            checked += 1
                            mismatched += (brute[E] > 0) != (E not in report.uncovered)
    return lines, (mismatched == 0 if checked else None)
