"""The summary and verdict of tools/bench_pairs.py on made-up runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def _runs(parent, change, digest_change="d"):
    """One parent and one change run per seed, with these metric values."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        for side, (wall, ops), digest in [("parent", p, "d"), ("change", c, digest_change)]:
            runs.append({
                "workload": "w", "seed": seed, "side": side, "first": "parent",
                "correct": True, "attempted": 10, "failed": 0, "digest": digest,
                "metrics": {"wall_s": wall, "ops_per_s": ops},
            })
    return runs


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3-5,9") == [3, 4, 5, 9]


def test_summary_counts_wins_in_each_metric_direction():
    parent = [(1.0 + i / 100, 10.0) for i in range(10)]
    change = [(0.8 + i / 100, 9.0 if i else 11.0) for i in range(10)]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)["w"]
    assert summary["pairs"] == 10 and summary["seeds"] == list(range(1, 11))
    assert summary["all_correct_none_failed"] and summary["answers_digests_equal"]
    assert summary["wall_s"]["change_wins"] == 10
    assert summary["wall_s"]["parent_quartiles"] == [1.0225, 1.045, 1.0675]
    assert summary["wall_s"]["median_change_pct"] == -19.1
    assert summary["ops_per_s"]["change_wins"] == 1  # higher is better
    met = bench_pairs.verdict({"w": summary}, "w", "wall_s")
    assert met.endswith("the claim is met")
    missed = bench_pairs.verdict({"w": summary}, "w", "ops_per_s")
    assert missed.endswith("the claim is not met")


def test_spread_is_judged_before_rounding():
    # the parent's spread is 4.5e-6 and the medians differ by 6e-6; rounded
    # to four decimals both medians would read 0.0128 and not differ at all
    parent = [(0.0128 + i * 1e-6, 1.0) for i in range(10)]
    change = [(p - 6e-6, 1.0) for p, _ in parent]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert summary["w"]["wall_s"]["parent_spread"] == 4.5e-06
    assert summary["w"]["wall_s"]["medians_apart"]
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is met")


def test_a_failed_run_or_different_answers_is_not_a_met_claim():
    parent, change = [(1.0, 1.0)] * 10, [(0.5, 1.0)] * 10
    assert bench_pairs.verdict(
        bench_pairs.summarize(_runs(parent, change), METRICS), "w", "wall_s"
    ).endswith("the claim is met")
    runs = _runs(parent, change, digest_change="e")
    summary = bench_pairs.summarize(runs, METRICS)
    assert not summary["w"]["answers_digests_equal"]
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is not met")
    runs = _runs(parent, change)
    runs[-1]["failed"] = 1
    summary = bench_pairs.summarize(runs, METRICS)
    assert not summary["w"]["all_correct_none_failed"]
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is not met")
