"""tools/bench_ab.py reads A/B pairs by the rules its records state."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

SWEEP_S = {"name": "sweep_s", "better": "lower", "bound": 0.25}
MIN_RATE = {"name": "min_rate_ratio", "better": "higher", "bound": 0.1}


def make_pairs(parent, change, metric="sweep_s"):
    return [{"seed": i, f"parent_{metric}": p, f"change_{metric}": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def summary_of(pairs, metric="sweep_s"):
    return {"pairs": pairs, metric: {
        side: bench_ab.spread([p[f"{side}_{metric}"] for p in pairs])
        for side in bench_ab.SIDES}}


def test_wins_are_strict_and_follow_the_metric_direction():
    pairs = make_pairs([1.0, 1.0, 1.0], [0.9, 1.0, 1.1])
    assert bench_ab.wins(pairs, "sweep_s", "lower") == 1
    assert bench_ab.wins(pairs, "sweep_s", "higher") == 1


@pytest.mark.parametrize("parent, change, entry, reading", [
    ([1.0, 1.0, 1.1, 1.1], [1.2, 1.2, 1.2, 1.2], SWEEP_S, "within bound"),
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], SWEEP_S, "worse"),
    # The parent's own runs spread wider than the 25% bound.
    ([1.0, 2.0, 1.0, 2.0], [1.4, 1.4, 1.4, 1.4], SWEEP_S, "unresolved"),
    ([1.0, 2.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5], SWEEP_S, "better in every run"),
    ([0.50, 0.50, 0.50], [0.40, 0.40, 0.40], MIN_RATE, "worse"),
    ([0.50, 0.50, 0.50], [0.60, 0.60, 0.60], MIN_RATE, "within bound"),
])
def test_verdict_reads_the_median_against_the_bound(parent, change, entry,
                                                    reading):
    pairs = make_pairs(parent, change, entry["name"])
    sides = summary_of(pairs, entry["name"])[entry["name"]]
    assert bench_ab.verdict(pairs, entry["name"], entry, sides)["verdict"] == reading


@pytest.mark.parametrize("won, met", [(9, True), (8, False)])
def test_claim_needs_nine_in_ten_wins(won, met):
    change = [0.5] * won + [1.5] * (10 - won)
    pairs = make_pairs([1.0, 1.02] * 5, change)
    result = bench_ab.claim(summary_of(pairs), "w", "sweep_s", "lower")
    assert result["met"] is met
    assert f"won {won} of 10" in result["why"]


def test_claim_needs_a_median_gap_beyond_the_parents_spread():
    pairs = make_pairs([1.0, 2.0] * 5, [0.9, 1.9] * 5)
    assert bench_ab.claim(summary_of(pairs), "w", "sweep_s", "lower")["met"] is False


def test_diff_sets_shared_workloads_side_by_side():
    old = {"workloads": {"w": summary_of(make_pairs([1.0], [0.8])),
                         "gone": summary_of(make_pairs([1.0], [1.0]))}}
    new = {"workloads": {"w": summary_of(make_pairs([0.8], [0.6]))}}
    lines = bench_ab.diff(old, new, ("A.json", "B.json"))
    assert len(lines) == 2
    assert lines[1].split() == ["w", "sweep_s", "1", "->", "0.8", "0.8", "->", "0.6"]


def test_first_op_seconds_read_from_the_worker_log():
    stderr = ("op 0 (untraced): 0.842 s, ok\n"
              "op 1 (untraced): 0.731 s, ok\n"
              "op 10 (untraced): 0.702 s, failed: exit code 1\n")
    assert bench_ab.first_op_seconds(stderr) == 0.842
    assert bench_ab.first_op_seconds("op 0 (untraced): 1.5e-02 s, failed: "
                                     "exit code 1\n") == 0.015
    with pytest.raises(ValueError):
        bench_ab.first_op_seconds("op 1 (untraced): 0.731 s, ok\n"
                                  "op 0 (traced): 0.9 s, ok\n")


def test_first_op_seconds_summarized_without_a_verdict():
    pairs = [{**p, "parent_first_op_s": 1.0, "change_first_op_s": 1.1,
              "parent_failed": 0, "change_failed": 0, "parent_attempted": 3,
              "change_attempted": 3, "parent_correct": True,
              "change_correct": True, "parent_min_rate_ratio": 0.5,
              "change_min_rate_ratio": 0.5}
             for p in make_pairs([1.0, 1.0], [0.9, 0.9])]
    summary = bench_ab.summarize(pairs, {"sweep_s": SWEEP_S})
    assert summary["first_op_s"] == {
        side: {"median": value, "q1": value, "q3": value}
        for side, value in (("parent", 1.0), ("change", 1.1))}


def test_claim_verdict_is_the_runs_last_line(monkeypatch, tmp_path, capsys):
    # Stand-ins for the exports and the runs: one pair the change wins.
    def fake_measure(checkouts, workload, seeds, seconds):
        pair = {"seed": seeds[0], "first": "parent"}
        for side, sweep_s in (("parent", 1.0), ("change", 0.5)):
            pair.update({f"{side}_sweep_s": sweep_s,
                         f"{side}_min_rate_ratio": 0.5,
                         f"{side}_first_op_s": 1.0, f"{side}_attempted": 3,
                         f"{side}_failed": 0, f"{side}_correct": True})
        return [pair]

    monkeypatch.setattr(bench_ab, "benchmark", lambda: (
        1.0, {"sweep_s": SWEEP_S, "min_rate_ratio": MIN_RATE}))
    monkeypatch.setattr(bench_ab, "recorded_seeds", lambda: [])
    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: rev)
    monkeypatch.setattr(bench_ab, "tree_digest", lambda path: "same")
    monkeypatch.setattr(bench_ab, "measure", fake_measure)
    out = tmp_path / "BENCH.json"
    assert bench_ab.main(["--workload", "w", "--pairs", "1", "--out", str(out),
                          "--claim", "w:sweep_s"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("claim w:sweep_s met: the change won 1 of 1 pairs; the "
                    "median gap (0.5) against the parent's interquartile "
                    "range (0)")
