"""Alternated parent/change pairs of the benchmark, written as a BENCH_*.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload witnesses --seeds 2711-2720 --out BENCH_27.json \\
        --claim "witnesses op_p50_ms: ..." --claim-metric witnesses:op_p50_ms

Each side is exported with ``git archive`` into its own temporary
directory, so only committed files run (``git stash create`` names the
working tree's tracked changes as a commit when they are not committed
yet).  For every workload and seed it runs the command that
``BENCHMARK.json`` names, with ``--workload W --seed S --seconds T
--trace 0``, once per side, one process at a time, in the side's own
directory; the side that runs first alternates from seed to seed.  Both
sides must declare the same ``BENCHMARK.json``, and T is its
``run_seconds``.  ``PYTHONDONTWRITEBYTECODE=1`` is set, so every run
compiles the sources as a fresh checkout does.

The output holds every run (its result line, answers digest and
metrics), and per workload and end-to-end metric each side's quartiles,
the number of pairs the change wins (by the metric's ``better``
direction) and the change of the median in percent.  With
``--claim-metric W:M`` a verdict says whether the change wins at least
nine pairs in ten and its median beats the parent's by more than the
parent's quartile spread, with every run of W correct, none failed and
equal answers digests on every pair.  Quartiles are rounded to five
significant digits for display only.

A change that claims no gain is judged by each metric's ``bound`` in
``BENCHMARK.json``: it is ``within_bound`` when the change's median is
no worse than the parent's by more than that share, in the metric's
``better`` direction, and ``unresolved`` when the parent's quartile
spread, over its median, is wider than the bound and not every change
run beats every parent run.  Per workload, ``past_bound`` and
``unresolved`` list those metrics, and the ``bounds`` verdicts, and the
claim verdict of its workload, name them.

A run that reads at least 20% off its own side's median on every metric
of the timed operations (``OPERATION_METRICS``) is listed under
``flagged_runs`` and named in the verdict, which it does not change: one
such run can decide a nine-of-ten claim.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = re.compile(r"answers digest (\w+)")
# The end-to-end metrics of the timed operations, all scaled by the same
# reference work.  The fast runs seen so far read about a quarter off on
# these and not on setup_s or peak_rss_mb, which come from other phases.
OPERATION_METRICS = ("wall_s", "op_p50_ms", "op_p90_ms")
OFF_BY = 0.2


def export(rev: str, into: Path) -> str:
    """Unpack the tree of rev into a new directory; return its short sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tf:
        tf.extractall(into)
    return sha


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree: Path, command: list[str], workload: str, seed: int, seconds: float, env) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if args[0] in ("python", "python3"):
        args[0] = sys.executable
    proc = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = DIGEST.search(proc.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest.group(1) if digest else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def shown(values: list[float]) -> list[float]:
    return [float(f"{v:.5g}") for v in values]


def flagged(runs: list[dict], names: list[str]) -> list[dict]:
    """The runs that read at least OFF_BY off their side's median on every
    metric of names, with each one's offsets in percent."""
    out = []
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        if not names:
            continue
        medians = {m: statistics.median(r["metrics"][m] for r in mine) for m in names}
        for r in mine:
            off = {m: (r["metrics"][m] - med) / med for m, med in medians.items() if med}
            if len(off) == len(names) and all(abs(x) >= OFF_BY for x in off.values()):
                pct = {m: round(100 * x, 1) for m, x in off.items()}
                out.append({"seed": r["seed"], "side": side, "off_pct": pct})
    return out


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        both = [p for p in pairs.values() if len(p) == 2]
        entry = {
            "seeds": sorted(pairs),
            "pairs": len(both),
            "all_correct_none_failed": all(r["correct"] and not r["failed"] for p in both for r in p.values()),
            "answers_digests_equal": all(p["parent"]["digest"] == p["change"]["digest"] for p in both),
            "flagged_runs": flagged(
                [r for p in both for r in p.values()],
                [m["name"] for m in metrics if m["name"] in OPERATION_METRICS],
            ),
        }
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"]["metrics"][name] for p in both]
            change = [p["change"]["metrics"][name] for p in both]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            (q1, p_med, q3), c_quartiles = quartiles(parent), quartiles(change)
            c_med = c_quartiles[1]
            entry[name] = {
                "parent_quartiles": shown([q1, p_med, q3]),
                "change_quartiles": shown(c_quartiles),
                "change_wins": wins,
                "median_change_pct": round(100 * (c_med - p_med) / p_med, 1),
                "parent_spread": float(f"{q3 - q1:.5g}"),
                "medians_apart": (p_med - c_med if lower else c_med - p_med) > q3 - q1,
            }
            if "bound" in metric:
                worse = (c_med - p_med if lower else p_med - c_med) / p_med
                beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
                entry[name]["within_bound"] = worse <= metric["bound"]
                entry[name]["unresolved"] = (q3 - q1) / p_med > metric["bound"] and not beats_all
        bounded = [m["name"] for m in metrics if "bound" in m]
        entry["past_bound"] = [m for m in bounded if not entry[m]["within_bound"]]
        entry["unresolved"] = [m for m in bounded if entry[m]["unresolved"]]
        out[workload] = entry
    return out


def bound_notes(w: dict) -> str:
    """The clauses that name a workload's metrics past their bound or too
    widely spread to tell; empty when there are none."""
    past = ", ".join(f"{m} ({w[m]['median_change_pct']:+.1f}%)" for m in w["past_bound"])
    return (f"past their bound: {past}; " if past else "") + (
        f"too widely spread to tell: {', '.join(w['unresolved'])}; " if w["unresolved"] else ""
    )


def bounds_verdict(summary: dict, workload: str) -> str:
    """Whether every end-to-end metric of workload stays within its bound,
    with every run correct, none failed and equal answers digests."""
    w = summary[workload]
    same = w["all_correct_none_failed"] and w["answers_digests_equal"]
    held = same and not w["past_bound"] and not w["unresolved"]
    return (
        f"{workload}: "
        + ("" if same else "a run failed or the answers differ; ")
        + bound_notes(w)
        + f"no regression past the bounds is {'shown' if held else 'not shown'}"
    )


def verdict(summary: dict, workload: str, metric: str) -> str:
    w = summary[workload]
    s, pairs = w[metric], w["pairs"]
    same = w["all_correct_none_failed"] and w["answers_digests_equal"]
    met = same and s["medians_apart"] and 10 * s["change_wins"] >= 9 * pairs
    return (
        f"{workload} {metric}: median {s['median_change_pct']:+.1f}%, change wins "
        f"{s['change_wins']} of {pairs}; the medians differ by "
        f"{'more' if s['medians_apart'] else 'no more'} than the parent's quartile spread "
        f"({s['parent_spread']:.4g}); "
        + ("" if same else "a run failed or the answers differ; ")
        + "".join(
            f"the {f['side']} run of seed {f['seed']} reads {OFF_BY:.0%} or more off its side's"
            " median on every operation metric; "
            for f in w["flagged_runs"]
        )
        + bound_notes(w)
        + f"the claim is {'met' if met else 'not met'}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--seeds", required=True, help="e.g. 2711-2720 or 5,7,9; one list for every workload")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--claim-metric", default=None, help="WORKLOAD:METRIC")
    args = ap.parse_args(argv)

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    seeds = parse_seeds(args.seeds)
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        spec, other = (json.loads((trees[s] / "BENCHMARK.json").read_text()) for s in ("change", "parent"))
        if spec != other:
            raise SystemExit("the two sides declare different BENCHMARK.json files")
        seconds = spec["run_seconds"]
        for workload in args.workload:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_one(trees[side], spec["command"], workload, seed, seconds, env)
                    runs.append({"workload": workload, "seed": seed, "side": side, "first": order[0], **run})
                    print(f"{workload} seed {seed} {side}: {json.dumps(run['metrics'])}", file=sys.stderr)

    metrics = spec["end_to_end"]
    summary = summarize(runs, metrics)
    command = " ".join(spec["command"]) + f" --workload W --seed S --seconds {seconds:g} --trace 0"
    record = {
        "schema": 1,
        "claim": args.claim,
        "command": command,
        "parent": shas["parent"],
        "change": shas["change"],
        "pairing": "parent and change alternated per seed, the side run first flipped every pair; "
        "both sides from exported copies of their committed trees, run one at a time",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        "PYTHONDONTWRITEBYTECODE=1 in the environment of every run",
        "final": {"seeds": args.seeds, "summary": summary, "runs": runs},
    }
    if args.claim_metric:
        workload, metric = args.claim_metric.split(":")
        record["verdict"] = verdict(summary, workload, metric)
        print(record["verdict"], file=sys.stderr)
    record["bounds"] = {workload: bounds_verdict(summary, workload) for workload in summary}
    print("\n".join(record["bounds"].values()), file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
