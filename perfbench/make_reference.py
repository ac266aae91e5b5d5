"""Write reference_class_queries.json, the answers class-queries is checked against.

Run once from the repository root:  python3 perfbench/make_reference.py

The pool of queries is drawn with a fixed seed from this package's own
class enumeration; every seeded class-queries batch samples from it.  The
answers come from ancover and are cross-checked before they are written:

  * N(C, D, E) = N(D, C, E) for every triple;
  * sum over E of |E| N(C, D, E) = |C| |D| for every covers pair, with
    class sizes from inputs.class_size (not from ancover);
  * the covering number of the n-cycle classes is 3 at n = 11 and 2 at
    n = 13 (3 when n = 3 mod 4, 2 when n = 1 mod 4).

Generation takes about two minutes on one core.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from ancover.characters import an_character_table  # noqa: E402
from ancover.classalgebra import covering_number, covers, frobenius_count  # noqa: E402
from ancover.permutations import parse_class_label  # noqa: E402

TRIPLES_PER_N = 300
COVERS_PER_N = 40
KNOWN_NCYCLE_CN = {"11:+": 3, "11:-": 3, "13:+": 2, "13:-": 2}


def main() -> int:
    rng = random.Random("reference-pool")
    ref: dict = {"frobenius": {}, "covers": {}, "covering_number": {}}
    for n in sorted(inputs.CQ_TRIPLES_PER_N):
        table = an_character_table(n)
        labels = inputs.class_labels(n)
        if sorted(labels) != sorted(c.text() for c in table.classes):
            raise SystemExit(f"class labels at n = {n} disagree with ancover")
        rows = []
        for _ in range(TRIPLES_PER_N):
            C, D, E = (rng.choice(labels) for _ in range(3))
            c, d, e = map(parse_class_label, (C, D, E))
            count = frobenius_count(c, d, e)
            if frobenius_count(d, c, e) != count:
                raise SystemExit(f"N({C},{D},{E}) is not symmetric")
            rows.append([C, D, E, count])
        ref["frobenius"][str(n)] = rows
        rows = []
        for _ in range(COVERS_PER_N):
            C, D = rng.choice(labels), rng.choice(labels)
            c, d = parse_class_label(C), parse_class_label(D)
            counts = {E: frobenius_count(c, d, parse_class_label(E)) for E in labels}
            if sum(inputs.class_size(E) * k for E, k in counts.items()) != (
                inputs.class_size(C) * inputs.class_size(D)
            ):
                raise SystemExit(f"class equation fails for ({C}, {D})")
            uncovered = sorted(g.text() for g in covers(c, d).uncovered)
            if uncovered != sorted(E for E, k in counts.items() if k == 0 and not inputs.is_identity(E)):
                raise SystemExit(f"covers({C}, {D}) disagrees with its Frobenius counts")
            rows.append([C, D, uncovered])
        ref["covers"][str(n)] = rows
        print(f"n={n}: {TRIPLES_PER_N} triples, {COVERS_PER_N} covers pairs", flush=True)
    for n in sorted(inputs.CQ_CN2_PER_N):
        for C in inputs.class_labels(n):
            if not inputs.is_identity(C):
                ref["covering_number"][C] = covering_number(parse_class_label(C))
        print(f"n={n}: covering numbers done", flush=True)
    for C, k in KNOWN_NCYCLE_CN.items():
        if ref["covering_number"][C] != k:
            raise SystemExit(f"covering number of {C} is {ref['covering_number'][C]}, expected {k}")
    with open(inputs.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {inputs.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
