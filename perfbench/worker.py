"""One benchmark repetition in a fresh, single-threaded interpreter.

run.py starts this file with the batch as JSON on stdin and reads one
JSON result from stdout.  The worker imports ancover, builds the tables
the batch declares (that is set-up, timed from after the batch is read),
answers every operation in order with a latency timer around each call
(that is the timed part), and only then checks the answers, so checking
never counts as work.  Peak memory is read before checking, so the
checker's own copies of the answers do not count either.  A batch with
"setup_only" set stops after set-up.

The machine's speed drifts, so the worker also times a fixed piece of
plain-Python reference work (``reference_work``) before and after set-up
and between every two operations.  run.py divides each time by the
reference time measured around it.

With "trace" set, spans (name, start, end, parent, operation id) are
recorded around every call the worker makes into an ancover layer, and a
seeded calibration slice times single permutation-kernel calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


class Tracer:
    """In-memory spans; each is [name, start_s, end_s, parent_index, op_id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()


class NullTracer:
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


# --- Machine speed -------------------------------------------------------

REFERENCE_ITERATIONS = 4000
PHASE_REFERENCE_PASSES = 3


def reference_work() -> int:
    """A fixed amount of interpreter work, independent of ancover: dict
    reads and writes and int arithmetic, with no GC-tracked allocation.
    About 1 ms on an unloaded 2-vCPU Xeon with Python 3.11."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 40503) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= table.get((key + 17) & 1023, 0) >> 3
    return acc


def reference_s(passes: int = 1) -> float:
    """Median time of ``passes`` runs of the reference work."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- Independent checks on permutations (image tuples, 1-based) -----------


def own_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Images of a*b, which applies b first (ancover's convention)."""
    return tuple(a[y - 1] for y in b)


def own_cycles(images: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = images[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = images[x - 1]
        out.append(cyc)
    return out


def own_type(images: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in own_cycles(images)), reverse=True))


def own_class(images: tuple[int, ...]) -> str:
    """A_n class label, from the definition: the "+" class of a split type
    holds the consecutive-fill representative (longest cycle first), and
    g is in it iff an even permutation conjugates that representative to g.
    Cycle lengths of a split type are distinct and odd, so the conjugator's
    parity does not depend on where each cycle is started."""
    parts = own_type(images)
    if not inputs.splits(parts):
        return inputs.label_text(parts)
    word = [x for c in sorted(own_cycles(images), key=len, reverse=True) for x in c]
    return inputs.label_text(parts, "+" if inputs.parity(word) == 0 else "-")


# --- The worker -----------------------------------------------------------


def main() -> int:
    batch = json.load(sys.stdin)
    setup_ref_before = reference_s(PHASE_REFERENCE_PASSES)
    setup_start = time.perf_counter()
    tracer = Tracer() if batch["trace"] else NullTracer()

    with tracer.span("setup.import"):
        import ancover
        from ancover.characters import an_character_table
        from ancover.classalgebra import covering_number, covers, frobenius_count
        from ancover.combinatorics import Partition
        from ancover.constructor import construct_witnesses, cover_with_ncycles
        from ancover.oracle import brute_frobenius
        from ancover.permutations import (
            ClassLabel,
            Permutation,
            an_class_of,
            an_class_size,
            class_representative,
            cycle_type,
            parse_class_label,
        )

    src = Path(batch["src"]).resolve()
    if src not in Path(ancover.__file__).resolve().parents:
        print(f"ancover was imported from {ancover.__file__}, not from {src}", file=sys.stderr)
        return 3

    tables = {}
    for n in batch["tables"]:
        with tracer.span("characters.an_character_table"):
            tables[n] = an_character_table(n)
    setup_s = time.perf_counter() - setup_start
    setup_ref_s = (setup_ref_before + reference_s(PHASE_REFERENCE_PASSES)) / 2
    if batch.get("setup_only"):
        json.dump({"setup_s": setup_s, "setup_ref_s": setup_ref_s}, sys.stdout)
        return 0

    # Turn the inputs into ancover objects; neither set-up nor timed.
    ops = []
    for op in batch["ops"]:
        kind, args = op["kind"], op["args"]
        if kind in ("frobenius_count", "covers", "covering_number", "oracle_triple"):
            ops.append((kind, [parse_class_label(a) for a in args]))
        elif kind == "construct_witnesses":
            lam, mu, seed = args
            ops.append((kind, [Partition(lam), Partition(mu), seed]))
        else:
            g, c_sign, d_sign, seed = args
            n = len(g)
            ncycle = Partition((n,))
            ops.append((kind, [Permutation(g), ClassLabel(ncycle, c_sign), ClassLabel(ncycle, d_sign), seed]))

    def answer(kind, a):
        if kind == "frobenius_count":
            with tracer.span("classalgebra.frobenius_count"):
                return frobenius_count(a[0], a[1], a[2], table=tables[a[0].n])
        if kind == "covers":
            with tracer.span("classalgebra.covers"):
                return covers(a[0], a[1], table=tables[a[0].n])
        if kind == "covering_number":
            with tracer.span("classalgebra.covering_number"):
                return covering_number(a[0], table=tables[a[0].n])
        if kind == "oracle_triple":
            C, D, E = a
            with tracer.span("permutations.class_representative"):
                g = class_representative(E)
            with tracer.span("oracle.brute_frobenius"):
                brute = brute_frobenius(C, D, g)
            with tracer.span("classalgebra.frobenius_count"):
                count = frobenius_count(C, D, E, table=tables[C.n])
            return brute, count
        if kind == "construct_witnesses":
            with tracer.span("constructor.construct_witnesses"):
                return construct_witnesses(a[0], a[1], seed=a[2])
        with tracer.span("constructor.cover_with_ncycles"):
            return cover_with_ncycles(a[0], a[1], a[2], seed=a[3])

    # Reference work before the first operation and after each one, so
    # operation i lies between refs[i] and refs[i + 1].
    latencies = []
    refs = [reference_s()]
    outputs = []
    for i, (kind, a) in enumerate(ops):
        tracer.op = i
        start = time.perf_counter()
        try:
            out = answer(kind, a)
        except Exception as exc:  # a raising operation counts as failed
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
        tracer.op = None
        refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Check every answer; build the digest from what was returned.  When
    # traced, the verify spans of this phase get its own reference time.
    check_start = time.perf_counter()
    if batch["trace"]:
        check_ref_before = reference_s(PHASE_REFERENCE_PASSES)
    failures: list[str] = []
    digest_items = []
    counts = {"table_cells": sum(len(t.classes) ** 2 for t in tables.values()),
              "class_elements": 0, "rebuild_steps": 0}
    for i, ((kind, a), out, spec) in enumerate(zip(ops, outputs, batch["ops"])):
        if isinstance(out, Exception):
            failures.append(f"{kind}{spec['args']!r}: raised {type(out).__name__}: {out}")
            digest_items.append(["raised", type(out).__name__])
            continue
        tracer.op = i
        problem = None
        if kind == "frobenius_count" or kind == "covering_number":
            got = out
            problem = got != spec["expect"] and f"returned {got}, reference says {spec['expect']}"
        elif kind == "covers":
            got = sorted(g.text() for g in out.uncovered)
            problem = got != spec["expect"] and f"missing {got}, reference says {spec['expect']}"
        elif kind == "oracle_triple":
            got = list(out)
            problem = out[0] != out[1] and f"brute force {out[0]} but frobenius_count {out[1]}"
            counts["class_elements"] += min(an_class_size(a[0]), an_class_size(a[1]))
        elif kind == "construct_witnesses":
            got, problem = check_witness(out, spec["args"], tracer, cycle_type, an_class_of)
            counts["rebuild_steps"] += len(out.rebuild_log) + len(out.rebuild_log_bar)
        else:
            got, problem = check_ncycles(out, spec["args"], tracer, cycle_type, an_class_of)
        if problem:
            failures.append(f"{kind}{spec['args']!r}: {problem}")
        digest_items.append(got)
    tracer.op = None

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "refs_s": refs,
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256(json.dumps(digest_items).encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
    }
    if batch["trace"]:
        result["check_start"] = check_start
        result["check_ref_s"] = (check_ref_before + reference_s(PHASE_REFERENCE_PASSES)) / 2
        result["spans"] = tracer.spans
        result["calibration"] = calibrate(batch["seed"], Permutation, cycle_type, an_class_of)
    json.dump(result, sys.stdout)
    return 0


def check_witness(pair, args, tracer, cycle_type, an_class_of):
    """Types, products and split classes of a WitnessPair, once through
    ancover's permutation layer and once with this file's own code."""
    lam, mu = tuple(args[0]), tuple(args[1])
    gamma, delta, delta_bar = pair.gamma.images, pair.delta.images, pair.delta_bar.images
    with tracer.span("permutations.verify"):
        layer_ok = (
            all(tuple(cycle_type(p).parts) == lam for p in (pair.gamma, pair.delta, pair.delta_bar))
            and tuple(cycle_type(pair.gamma * pair.delta).parts) == mu
            and tuple(cycle_type(pair.gamma * pair.delta_bar).parts) == mu
            and (not inputs.splits(lam) or an_class_of(pair.delta) != an_class_of(pair.delta_bar))
        )
    product, product_bar = own_compose(gamma, delta), own_compose(gamma, delta_bar)
    own_ok = (
        all(own_type(p) == lam for p in (gamma, delta, delta_bar))
        and own_type(product) == mu
        and own_type(product_bar) == mu
        and (not inputs.splits(lam) or own_class(delta) != own_class(delta_bar))
        and pair.product_label.text() == own_class(product)
        and pair.product_label_bar.text() == own_class(product_bar)
    )
    got = [list(gamma), list(delta), list(delta_bar)]
    if not (layer_ok and own_ok):
        return got, "witnesses fail the type, product or class checks"
    return got, None


def check_ncycles(out, args, tracer, cycle_type, an_class_of):
    """c and d are n-cycles in the requested classes with c*d = g."""
    g, c_sign, d_sign = tuple(args[0]), args[1], args[2]
    n = len(g)
    c, d = out
    want_c, want_d = inputs.label_text((n,), c_sign), inputs.label_text((n,), d_sign)
    with tracer.span("permutations.verify"):
        layer_ok = (
            (c * d).images == g
            and tuple(cycle_type(c).parts) == (n,) == tuple(cycle_type(d).parts)
            and an_class_of(c).text() == want_c
            and an_class_of(d).text() == want_d
        )
    own_ok = (
        own_compose(c.images, d.images) == g
        and own_class(c.images) == want_c
        and own_class(d.images) == want_d
    )
    got = [list(c.images), list(d.images)]
    if not (layer_ok and own_ok):
        return got, f"({c}, {d}) is not a factorization of g into {want_c} * {want_d}"
    return got, None


CALIBRATION = {"n9": (9, 1000), "n1001": (1001, 60)}


def calibrate(seed, Permutation, cycle_type, an_class_of) -> dict:
    """Microseconds per call of the permutation kernel on seeded even
    permutations: five passes over the same sample, each as [us per call,
    reference time measured right after it]."""
    out = {}
    for tag, (n, count) in CALIBRATION.items():
        rng = random.Random(f"calibration/{seed}/{n}")
        perms = [
            Permutation(inputs.random_even(list(range(1, n + 1)), n, rng)) for _ in range(count + 1)
        ]
        pairs = list(zip(perms, perms[1:]))
        calls = {
            "mul": lambda: [a * b for a, b in pairs],
            "inverse": lambda: [a.inverse() for a, _ in pairs],
            "cycle_type": lambda: [cycle_type(a) for a, _ in pairs],
            "an_class_of": lambda: [an_class_of(a) for a, _ in pairs],
        }
        for name, run in calls.items():
            passes = []
            for _ in range(5):
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
                passes.append([elapsed / count * 1e6, reference_s()])
            out[f"{name}_us.{tag}"] = passes
    return out


if __name__ == "__main__":
    sys.exit(main())
