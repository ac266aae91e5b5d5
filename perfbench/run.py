"""Outside-in benchmark of ancover: exact class products, the oracle, witnesses.

Usage, from the repository root:

    python3 perfbench/run.py --workload class-queries --seed 1 --seconds 30 --trace 0

Workloads: class-queries, oracle-check, witnesses (see BENCHMARK.json and
perfbench/README.md).  The seed fixes the batch of operations.  The run
answers the batch REPS times, each time in a fresh worker process.
Every time is first scaled to the machine's speed at the moment it was
measured (see scaled_latencies), then each operation's median over
the repetitions is taken (see op_medians); memory is the median over the
repetitions.  Between repetitions it starts set-up-only workers, spread
over --seconds, and reports the median scaled set-up time over every
worker.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates TRACED_PAIRS untraced and traced repetitions, writes the
spans under perfbench/out/, and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# The number of repetitions is fixed, not fitted to --seconds, so both
# sides of a comparison get the same estimator whatever their speed.
REPS = 5
TRACED_PAIRS = 3
WORKER_TIMEOUT_S = 120

# Times are reported in reference seconds: a measured time multiplied by
# REFERENCE_S over the time the worker's fixed reference work took around
# it.  The shared machine this was written on runs one phase fast and the
# next up to 1.6x slower, in stretches from under a second to minutes;
# the reference work slows with it, so the ratio stays put.  On an
# unloaded machine the reference work takes about REFERENCE_S, and a
# reference second is about a second.
REFERENCE_S = 0.001


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    # The same interpreter, environment and hash seed for every worker, so
    # every cache in the program starts cold in the same way.
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


def run_worker(batch: dict, trace: bool, setup_only: bool = False) -> dict:
    payload = json.dumps(dict(batch, trace=trace, setup_only=setup_only, src=str(SRC)))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=payload,
        capture_output=True,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def warm_up() -> None:
    """Import the package once, untimed, so bytecode is compiled before set-up is measured."""
    proc = subprocess.run(
        [sys.executable, "-c", "import ancover"],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import ancover from {SRC}:\n{proc.stderr.strip()}")


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics.quantiles, inclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def repeat(batch: dict, seconds: float) -> tuple[list[dict], list[float]]:
    """REPS full repetitions, each followed by set-up-only workers until its
    share of --seconds is spent, so the set-up times sample the whole run."""
    reps: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    for i in range(REPS):
        reps.append(dict(run_worker(batch, False), traced=False))
        setups += more_setups(batch, start + seconds * (i + 1) / REPS)
    return reps, setups


def more_setups(batch: dict, deadline: float) -> list[float]:
    """Set-up times of set-up-only workers, started while one more still fits."""
    setups: list[float] = []
    last = 0.0
    while time.monotonic() + last <= deadline:
        start = time.monotonic()
        setups.append(scaled_setup(run_worker(dict(batch, ops=[]), False, setup_only=True)))
        last = time.monotonic() - start
    return setups


def op_scales(rep: dict) -> list[float]:
    """Per operation, REFERENCE_S over the reference time around it: the
    mean of the reference work timed just before and just after it."""
    refs = rep["refs_s"]
    return [2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(refs) - 1)]


def scaled_latencies(rep: dict) -> list[float]:
    return [t * k for t, k in zip(rep["latencies_s"], op_scales(rep))]


def scaled_setup(rep: dict) -> float:
    return rep["setup_s"] * REFERENCE_S / rep["setup_ref_s"]


def op_medians(per_rep: list[list[float]]) -> list[float]:
    """Each operation's median time over the repetitions.

    Every repetition answers the same batch from the same cold start, so
    an operation does the same work each time; only the machine's speed
    differs.  Scaling removes the slow phases that the reference work
    around an operation saw; the median removes the ones it missed,
    which are shorter than one operation."""
    return [statistics.median(times) for times in zip(*per_rep)]


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the full repetitions and every set-up time."""
    op_ms = [x * 1e3 for x in op_medians([scaled_latencies(r) for r in reps])]
    attempted = sum(len(r["latencies_s"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_ms) / 1e3, "s"),
        "op_p50_ms": (quantile(op_ms, 0.5), "ms"),
        "op_p90_ms": (quantile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    how = {
        "setup_s": f"scaled, median of {len(setups)} set-ups, {len(reps)} in full repetitions",
        "wall_s": f"scaled, sum over {len(op_ms)} operations of each one's median of {len(reps)} repetitions",
        "op_p50_ms": f"scaled, over {len(op_ms)} operations, median of {len(reps)} repetitions each",
        "op_p90_ms": f"scaled, over {len(op_ms)} operations, median of {len(reps)} repetitions each",
        "peak_rss_mb": f"median of {len(reps)} repetitions",
    }
    lines = [f"{name:<12} {value:12.6f} {unit:<3} ({how[name]})" for name, (value, unit) in metrics.items()]
    lines.append(f"failed_ratio {failed / attempted:12.6f}     ({failed} of {attempted} operations)")
    lines.append("unscaled batch time of each repetition (s): " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    lines.append("reference time, median of each repetition (ms): "
                 + " ".join(f"{statistics.median(r['refs_s']) * 1e3:.3f}" for r in reps))
    lines.append("scaled set-up time of each worker (s): " + " ".join(f"{x:.3f}" for x in setups))
    return metrics, lines


def _spans(reps: list[dict], name: str) -> list[float]:
    """Scaled durations of the spans called ``name``, each its median over
    the traced repetitions (the spans of one batch line up one to one).
    A span takes the scale of the phase it ran in: set-up, its operation,
    or the checking that follows the timed part."""
    def scale(rep, span, ops):
        if span[1] >= rep["check_start"]:
            return REFERENCE_S / rep["check_ref_s"]
        return REFERENCE_S / rep["setup_ref_s"] if span[4] is None else ops[span[4]]

    def scaled(rep):
        ops = op_scales(rep)
        return [(s[2] - s[1]) * scale(rep, s, ops) for s in rep["spans"] if s[0] == name]
    return op_medians([scaled(r) for r in reps])


def calibrated(passes: list[list[float]]) -> float:
    """Median over the calibration passes of [microseconds per call,
    reference time right after], scaled."""
    return statistics.median(us * REFERENCE_S / ref for us, ref in passes)


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the spans of the traced repetitions.

    Counts are per batch and must agree across repetitions; times are
    scaled and use each span's median over the repetitions, as the
    end-to-end timings do."""
    counts = traced[0]["counts"]
    if any(r["counts"] != counts for r in traced):
        raise BenchError("work counts differ between repetitions of one batch")
    m: dict[str, tuple[float, str]] = {}
    build_s = sum(_spans(traced, "characters.an_character_table"))
    cells = counts["table_cells"]
    m["characters.build_s"] = (build_s, "s")
    m["characters.table_cells"] = (cells, "count")
    m["characters.build_us_per_cell"] = (build_s * 1e6 / cells if cells else 0.0, "us")
    for fn in ("frobenius_count", "covers", "covering_number"):
        d = _spans(traced, f"classalgebra.{fn}")
        m[f"classalgebra.{fn}.calls"] = (len(d), "count")
        m[f"classalgebra.{fn}.busy_s"] = (sum(d), "s")
        m[f"classalgebra.{fn}.p50_us"] = (quantile(d, 0.5) * 1e6, "us")
    d = _spans(traced, "oracle.brute_frobenius")
    elements = counts["class_elements"]
    m["oracle.brute_frobenius.calls"] = (len(d), "count")
    m["oracle.brute_frobenius.busy_s"] = (sum(d), "s")
    m["oracle.brute_frobenius.p50_ms"] = (quantile(d, 0.5) * 1e3, "ms")
    m["oracle.brute_frobenius.p90_ms"] = (quantile(d, 0.9) * 1e3, "ms")
    m["oracle.class_elements"] = (elements, "count")
    m["oracle.us_per_element"] = (sum(d) * 1e6 / elements if elements else 0.0, "us")
    for key in traced[0]["calibration"]:
        m[f"permutations.{key}"] = (statistics.median(calibrated(r["calibration"][key]) for r in traced), "us")
    m["permutations.verify_busy_s"] = (sum(_spans(traced, "permutations.verify")), "s")
    d = _spans(traced, "constructor.construct_witnesses")
    m["constructor.construct_witnesses.calls"] = (len(d), "count")
    m["constructor.construct_witnesses.busy_s"] = (sum(d), "s")
    m["constructor.construct_witnesses.p50_us"] = (quantile(d, 0.5) * 1e6, "us")
    m["constructor.rebuild_steps"] = (counts["rebuild_steps"], "count")
    d = _spans(traced, "constructor.cover_with_ncycles")
    m["constructor.cover_with_ncycles.calls"] = (len(d), "count")
    m["constructor.cover_with_ncycles.busy_s"] = (sum(d), "s")
    m["constructor.cover_with_ncycles.p50_ms"] = (quantile(d, 0.5) * 1e3, "ms")
    m["constructor.cover_with_ncycles.p90_ms"] = (quantile(d, 0.9) * 1e3, "ms")
    wall = {trace: sum(op_medians([scaled_latencies(r) for r in reps]))
            for trace, reps in ((True, traced), (False, untraced))}
    m["tracing.overhead"] = (wall[True] / wall[False], "ratio")
    return m


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    with open(path, "w") as fh:
        for rep, r in enumerate(traced):
            for name, start, end, parent, op in r["spans"]:
                fh.write(json.dumps({"rep": rep, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "ancover" / "__init__.py").is_file():
            raise BenchError(f"no ancover sources under {SRC}")
        batch = inputs.make_batch(args.workload, args.seed)
        warm_up()
        if args.trace:
            reps = [dict(run_worker(batch, trace), traced=trace) for trace in [False, True] * TRACED_PAIRS]
            setups = []
        else:
            reps, setups = repeat(batch, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in reps}
    attempted = sum(len(r["latencies_s"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(batch['ops'])} operations per batch, "
          f"{len(reps)} repetitions, answers digest {sorted(digests)[0][:16]}")
    if len(digests) > 1:
        print("answers differ between repetitions of the same batch", file=sys.stderr)

    untraced = [r for r in reps if not r["traced"]]
    metrics, lines = end_to_end(untraced, [scaled_setup(r) for r in untraced] + setups)
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        try:
            metrics = per_layer(traced, untraced)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        lines = [f"{name:<45} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"spans written to {write_spans(args.workload, args.seed, traced).relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
