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
    # the fast parent run and the slow change run decide the wall_s claim
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is not met")
    runs = _runs(parent, change)
    runs[-1]["failed"] = 1
    summary = bench_pairs.summarize(runs, METRICS)
    assert not summary["w"]["all_correct_none_failed"]
    # the fast parent run and the slow change run decide the wall_s claim
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is not met")


def test_a_run_off_on_every_operation_metric_is_flagged_but_does_not_change_the_verdict():
    # Shaped like the parent's seed-2520 run of BENCH_25.json: about a
    # quarter fast on the timed operations, not on set-up or peak RSS.
    metrics = [{"name": n, "better": "lower"} for n in ("setup_s", *bench_pairs.OPERATION_METRICS, "peak_rss_mb")]
    runs = []
    for seed in range(1, 11):
        for side, scale in (("parent", 1.0), ("change", 0.97)):
            runs.append({
                "workload": "w", "seed": seed, "side": side, "first": "parent",
                "correct": True, "attempted": 10, "failed": 0, "digest": "d",
                "metrics": {"setup_s": 0.06 * scale, "wall_s": 0.013 * scale, "op_p50_ms": 0.045 * scale,
                            "op_p90_ms": 0.5 * scale, "peak_rss_mb": 23.0},
            })
    before = bench_pairs.summarize(runs, metrics)
    assert before["w"]["flagged_runs"] == []
    fast = runs[18]["metrics"]  # the parent run of seed 10
    fast.update(setup_s=0.057, wall_s=0.0099, op_p50_ms=0.0315, op_p90_ms=0.37)
    runs[3]["metrics"]["wall_s"] = 0.018  # a slow change run, off on one metric only
    summary = bench_pairs.summarize(runs, metrics)
    (flag,) = summary["w"]["flagged_runs"]
    assert (flag["seed"], flag["side"]) == (10, "parent")
    assert flag["off_pct"] == {"wall_s": -23.8, "op_p50_ms": -30.0, "op_p90_ms": -26.0}
    note = "the parent run of seed 10 reads 20% or more off its side's median on every operation metric; "
    unflagged = {"w": {**summary["w"], "flagged_runs": []}}
    for name in ("setup_s", "wall_s"):
        text = bench_pairs.verdict(summary, "w", name)
        assert note in text and text.replace(note, "") == bench_pairs.verdict(unflagged, "w", name)
    # the fast parent run and the slow change run decide the wall_s claim
    assert bench_pairs.verdict(summary, "w", "wall_s").endswith("the claim is not met")
    assert bench_pairs.verdict(summary, "w", "setup_s").endswith("the claim is met")


BOUNDED = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.05},
]


def test_each_metric_is_judged_against_its_bound_in_its_direction():
    parent = [(1.0 + i / 100, 10.0 + i / 100) for i in range(10)]
    # wall_s 20% worse and ops_per_s 4% worse: both inside their bounds
    change = [(1.2 * w, 0.96 * o) for w, o in parent]
    summary = bench_pairs.summarize(_runs(parent, change), BOUNDED)
    w = summary["w"]
    assert w["wall_s"]["within_bound"] and w["ops_per_s"]["within_bound"]
    assert not w["wall_s"]["unresolved"] and not w["ops_per_s"]["unresolved"]
    assert w["past_bound"] == [] and w["unresolved"] == []
    assert bench_pairs.bounds_verdict(summary, "w") == "w: no regression past the bounds is shown"
    # wall_s 30% worse, and fewer operations per second by 10%
    change = [(1.3 * w, 0.9 * o) for w, o in parent]
    summary = bench_pairs.summarize(_runs(parent, change), BOUNDED)
    w = summary["w"]
    assert not w["wall_s"]["within_bound"] and not w["ops_per_s"]["within_bound"]
    assert w["past_bound"] == ["wall_s", "ops_per_s"]
    text = bench_pairs.bounds_verdict(summary, "w")
    assert text == (
        "w: past their bound: wall_s (+30.0%), ops_per_s (-10.0%); "
        "no regression past the bounds is not shown"
    )
    claim = bench_pairs.verdict(summary, "w", "ops_per_s")
    assert "past their bound: wall_s (+30.0%), ops_per_s (-10.0%); " in claim
    assert claim.endswith("the claim is not met")
    # faster and more operations: nothing past a bound
    change = [(0.5 * w, 2 * o) for w, o in parent]
    assert bench_pairs.summarize(_runs(parent, change), BOUNDED)["w"]["past_bound"] == []


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_change_beats_every_run():
    # parent wall_s from 1.0 to 1.9: quartile spread 0.45 over a median of 1.45
    parent = [(1.0 + i / 10, 10.0) for i in range(10)]
    change = [(w, 10.0) for w, _ in parent]
    summary = bench_pairs.summarize(_runs(parent, change), BOUNDED)
    w = summary["w"]
    assert w["wall_s"]["within_bound"] and w["wall_s"]["unresolved"]
    assert w["unresolved"] == ["wall_s"] and w["past_bound"] == []
    assert bench_pairs.bounds_verdict(summary, "w") == (
        "w: too widely spread to tell: wall_s; no regression past the bounds is not shown"
    )
    change = [(0.9, 10.0)] * 10  # every change run beats every parent run
    assert bench_pairs.summarize(_runs(parent, change), BOUNDED)["w"]["unresolved"] == []
    # different answers are never shown to be inside the bounds
    same = [(1.0, 10.0)] * 10
    summary = bench_pairs.summarize(_runs(same, same, digest_change="e"), BOUNDED)
    assert bench_pairs.bounds_verdict(summary, "w") == (
        "w: a run failed or the answers differ; no regression past the bounds is not shown"
    )
