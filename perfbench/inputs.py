"""Seeded workload inputs for the perfbench harness.

Everything here is plain Python with no ``ancover`` import: the class
labels, class sizes and permutations that make up a batch are derived by
this module's own combinatorics, so a refactor of the package cannot
change what the benchmark asks.  A batch is a JSON-ready dict; the worker
turns its entries into ``ancover`` objects.

Counts per stratum are fixed and only the members are drawn from the
seed.  The time of a batch then varies little from seed to seed, which
is what lets ten seeds agree within the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_class_queries.json"

# --- A_n classes, computed independently of ancover -----------------------


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n as decreasing tuples, largest first part first."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def is_even_type(parts: tuple[int, ...]) -> bool:
    return (sum(parts) - len(parts)) % 2 == 0


def splits(parts: tuple[int, ...]) -> bool:
    """An even S_n class splits in A_n iff its parts are distinct and odd."""
    return sum(parts) >= 2 and len(set(parts)) == len(parts) and all(p % 2 for p in parts)


def label_text(parts: tuple[int, ...], sign: str | None = None) -> str:
    base = ",".join(str(p) for p in parts)
    return f"{base}:{sign}" if sign else base


def class_labels(n: int) -> list[str]:
    """Every A_n class label, in this module's own fixed order."""
    out: list[str] = []
    for p in partitions(n):
        if not is_even_type(p):
            continue
        if splits(p):
            out += [label_text(p, "+"), label_text(p, "-")]
        else:
            out.append(label_text(p))
    return out


def parse_parts(label: str) -> tuple[int, ...]:
    return tuple(int(t) for t in label.partition(":")[0].split(","))


def type_size(parts: tuple[int, ...]) -> int:
    """Number of permutations of cycle type ``parts`` in S_n."""
    z = 1
    for length in set(parts):
        m = parts.count(length)
        z *= length**m * math.factorial(m)
    return math.factorial(sum(parts)) // z


def class_size(label: str) -> int:
    parts = parse_parts(label)
    size = type_size(parts)
    return size // 2 if ":" in label else size


def is_identity(label: str) -> bool:
    return set(parse_parts(label)) == {1}


# --- Permutations as image lists (1-based points) -------------------------


def parity(images: list[int]) -> int:
    seen = [False] * len(images)
    swaps = 0
    for start in range(len(images)):
        x, length = start, 0
        while not seen[x]:
            seen[x] = True
            x = images[x] - 1
            length += 1
        swaps += max(length - 1, 0)
    return swaps % 2


def random_even(points: list[int], n: int, rng: random.Random) -> list[int]:
    """A random even permutation of degree n that moves only ``points``."""
    images = list(range(1, n + 1))
    shuffled = points[:]
    rng.shuffle(shuffled)
    for a, b in zip(points, shuffled):
        images[a - 1] = b
    if parity(images):
        a, b = points[0], points[1]
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return images


def random_nontrivial_even(points: list[int], n: int, rng: random.Random) -> list[int]:
    while True:
        images = random_even(points, n, rng)
        if any(images[i] != i + 1 for i in range(n)):
            return images


# --- Reference answers for class-queries ----------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- Workload generators --------------------------------------------------

# class-queries: fixed counts per degree.  Covers and covering numbers
# carry the time; triples carry the count.  The counts put the median
# latency inside the n = 15 triples and the 90th percentile inside the
# n = 15 covers, away from the edge between two kinds of operation.
# Covering numbers: the n-cycle classes (cn 3 at n = 11, 2 at n = 13)
# and seeded classes with cn = 2.  Other classes with cn >= 3 take
# 0.2-2.9 s each by support closure, and one of them would move a batch
# by up to a tenth from seed to seed.
CQ_TABLES = (11, 12, 13, 14, 15, 16)
CQ_TRIPLES_PER_N = {12: 20, 13: 20, 14: 20, 15: 20, 16: 20}
CQ_COVERS_PER_N = {12: 4, 13: 4, 14: 4, 15: 12, 16: 6}
CQ_NCYCLES = ("11:+", "11:-", "13:+", "13:-")
CQ_CN2_PER_N = {11: 4, 12: 4, 13: 4}


def class_queries(seed: int, reference: dict) -> dict:
    """Shuffled stream of triples, covers pairs and covering-number
    classes, each drawn from the reference pool so it can be checked."""
    rng = random.Random(f"class-queries/{seed}")
    ops: list[dict] = []
    for n, count in CQ_TRIPLES_PER_N.items():
        pool = reference["frobenius"][str(n)]
        for C, D, E, count_ in rng.sample(pool, count):
            ops.append({"kind": "frobenius_count", "args": [C, D, E], "expect": count_})
    for n, count in CQ_COVERS_PER_N.items():
        pool = reference["covers"][str(n)]
        for C, D, uncovered in rng.sample(pool, count):
            ops.append({"kind": "covers", "args": [C, D], "expect": uncovered})
    cn = reference["covering_number"]
    ops += [{"kind": "covering_number", "args": [C], "expect": cn[C]} for C in CQ_NCYCLES]
    for n, count in CQ_CN2_PER_N.items():
        pool = sorted(C for C, k in cn.items() if k == 2 and sum(parse_parts(C)) == n and parse_parts(C) != (n,))
        ops += [
            {"kind": "covering_number", "args": [C], "expect": cn[C]} for C in rng.sample(pool, count)
        ]
    rng.shuffle(ops)
    return {"workload": "class-queries", "seed": seed, "tables": list(CQ_TABLES), "ops": ops}


# oracle-check: brute_frobenius enumerates the smaller of C and D, so its
# cost follows that class.  Every seed enumerates the same classes the
# same number of times, weighted toward small n; the seed draws the larger
# partner, the order of C and D and the target E.  OC_COUNTS maps a limit
# on the S_n type size of the enumerated class to its count, the first
# limit that fits applying.  At n = 9 nothing above 9072 is enumerated:
# one enumeration of a class of 20160 or more elements takes 1.3-2.7 s,
# and would hold a third of the batch's time in one call.  Larger n = 8
# classes are left out as well: each costs 80-300 ms depending on the
# partner and E, and with them the 90th percentile fell on the edge of the
# tail.  The six n = 9 classes above 945 elements are the tail.
#
# The percentiles are kept inside blocks of operations of one cost, so
# that the seed does not move them from one kind of operation to another.
# Below the tail come OC_PLATEAU triples (3,2,2,1; 3,2,2,1; E) at n = 8:
# with a partner that does not split, the cost hardly depends on E, and
# the 90th percentile falls among them.  The counts of the small classes
# put the median inside the n = 7 classes of 280-720 elements.
OC_TABLES = (7, 8, 9)
OC_COUNTS = {
    7: ((105, 10), (720, 6)),
    8: ((210, 6), (1680, 2)),
    9: ((945, 3), (9072, 1)),
}
OC_PLATEAU = (8, "3,2,2,1", 12)


def oracle_check(seed: int) -> dict:
    rng = random.Random(f"oracle-check/{seed}")
    ops: list[dict] = []
    for n, limits in OC_COUNTS.items():
        labels = class_labels(n)
        for small in labels:
            size = type_size(parse_parts(small))
            count = next((c for limit, c in limits if size <= limit), 0)
            for _ in range(count):
                other = rng.choice([
                    c for c in labels
                    if class_size(c) > class_size(small) or parse_parts(c) == parse_parts(small)
                ])
                C, D = (small, other) if rng.random() < 0.5 else (other, small)
                ops.append({"kind": "oracle_triple", "args": [C, D, rng.choice(labels)]})
    n, plateau, count = OC_PLATEAU
    labels = class_labels(n)
    for _ in range(count):
        ops.append({"kind": "oracle_triple", "args": [plateau, plateau, rng.choice(labels)]})
    rng.shuffle(ops)
    return {"workload": "oracle-check", "seed": seed, "tables": list(OC_TABLES), "ops": ops}


# witnesses: construct_witnesses instances plus cover_with_ncycles on
# dense random g (n = 51, 101) and on sparse g, moving at most 9 points
# (n = 101, 1001).  A dense search takes a geometric number of trials, so
# one call's time varies about as much as its mean; dense calls are kept
# few enough that their summed spread stays small next to the rest of the
# batch.  At n = 201 a single dense call takes 0.1-0.5 s, which is why
# that degree is left out.  construct_witnesses calls are more than half
# of the operations, so the median latency is one of them.
W_CONSTRUCT = 400
W_DENSE = {51: 30, 101: 6}
W_SPARSE = {101: 40, 1001: 150}


def witness_instance(rng: random.Random) -> tuple[list[int], list[int]]:
    """(lam, mu): lam has k <= 4 distinct odd parts, n <= 60; mu is an
    even type other than 1^n with at least 8k+9 fixed points."""
    while True:
        k = rng.randint(1, 4)
        lam = sorted(rng.sample(range(3, 30, 2), k), reverse=True)
        n = sum(lam)
        spare = n - (8 * k + 9)
        if n > 60 or spare < 4:
            continue
        moved = rng.randint(4, min(spare, 24))
        mu: list[int] = []
        while sum(mu) < moved:
            left = moved - sum(mu)
            part = rng.randint(2, min(9, left))
            if left - part != 1:
                mu.append(part)
        mu = sorted(mu, reverse=True) + [1] * (n - moved)
        if is_even_type(tuple(mu)):
            return lam, mu


def witnesses(seed: int) -> dict:
    rng = random.Random(f"witnesses/{seed}")
    ops: list[dict] = []
    for _ in range(W_CONSTRUCT):
        lam, mu = witness_instance(rng)
        ops.append({"kind": "construct_witnesses", "args": [lam, mu, rng.randrange(2**31)]})
    for spec, sparse in ((W_DENSE, False), (W_SPARSE, True)):
        for n, count in spec.items():
            for _ in range(count):
                points = rng.sample(range(1, n + 1), rng.randint(3, 9)) if sparse else list(range(1, n + 1))
                g = random_nontrivial_even(points, n, rng)
                signs = [rng.choice("+-"), rng.choice("+-")]
                ops.append({"kind": "cover_with_ncycles", "args": [g, *signs, rng.randrange(2**31)]})
    rng.shuffle(ops)
    return {"workload": "witnesses", "seed": seed, "tables": [], "ops": ops}


WORKLOADS = ("class-queries", "oracle-check", "witnesses")


def make_batch(workload: str, seed: int, reference: dict | None = None) -> dict:
    if workload == "class-queries":
        return class_queries(seed, reference if reference is not None else load_reference())
    if workload == "oracle-check":
        return oracle_check(seed)
    if workload == "witnesses":
        return witnesses(seed)
    raise ValueError(f"unknown workload {workload!r}")
