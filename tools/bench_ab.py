#!/usr/bin/env python3
"""A/B runs of the benchmark: a parent and a change, side by side.

Run from the root of a checkout:

    python3 tools/bench_ab.py --parent HEAD --change WORKTREE \\
        --workload sweep-simple6 --workload exact-ring4 --pairs 10 \\
        --out BENCH_21.json --what "what the change does"
    python3 tools/bench_ab.py --diff BENCH_19.json BENCH_21.json

Each side is exported into a temporary directory: a git revision with
``git archive``, and ``WORKTREE`` as the files git lists in the working
tree (tracked and untracked, less the ignored ones).  Both sides must hold
identical ``perfbench/`` files.  Each workload then runs
``perfbench/run.py --trace 0`` in alternating pairs: the first pair runs
the parent first, the next the change first, and so on.  Each run lasts
the ``run_seconds`` of ``BENCHMARK.json``.  Every pair has its own seed,
counting up from one past the largest seed recorded in any
``BENCH_*.json`` beside this checkout, so no seed is used twice.  Every
run made is recorded.

The output keeps the layout of the earlier ``BENCH_*.json`` files: per
workload the pairs, the change's sweep_s wins, the median and inclusive
quartiles of each end-to-end metric per side, and the ops attempted and
failed.  With ``--claim WORKLOAD:METRIC`` it states whether the change
wins at least 9 of 10 pairs and its median beats the parent's by more
than the parent's interquartile range, and prints that verdict as the
run's last line.  Each metric also records by how much the change's
median is worse than the parent's, as a fraction of the parent's, and
reads it against its bound in ``BENCHMARK.json``: "within bound",
"worse", or "unresolved" where the parent's interquartile range is
wider than the bound and not every change run beats every parent run.

Each run's ``first_op_s`` is also kept: the wall time of its first op,
read from the ``op 0 (untraced): X s`` line that ``perfbench/worker.py``
writes to stderr.  Work moved out of the set-up probe (a deferred import,
say) lands there.  It gets a median and quartiles per side, no verdict.

``--diff A B`` prints, for each workload and metric the two files share,
each file's parent and change medians side by side.

Standard library only; it runs the benchmark, never imports it.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("parent", "change")
FIRST_OP = re.compile(r"^op 0 \(untraced\): (\S+) s,", re.MULTILINE)
RULE = ("change wins at least 9 of 10 pairs and the gap between medians "
        "exceeds the parent's interquartile range")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write revision ``rev`` (or the working tree) to ``dest``; its commit."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        for name in git("ls-files", "-z", "-co", "--exclude-standard").split(b"\0"):
            src = ROOT / name.decode()
            if name and src.is_file():  # a deleted tracked file is skipped
                (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name.decode())
        head = git("rev-parse", "--verify", "HEAD^{commit}").decode().strip()
        return f"working tree on {head}"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def tree_digest(path: Path) -> str:
    """Digest of every file under ``path``: names and bytes."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def benchmark() -> tuple[float, dict[str, dict]]:
    """BENCHMARK.json's run length and its end-to-end metrics by name."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["run_seconds"], {entry["name"]: entry for entry in doc["end_to_end"]}


def recorded_seeds() -> list[int]:
    """Every pair seed in the BENCH_*.json files beside this checkout."""
    seeds = []
    for path in ROOT.glob("BENCH_*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for workload in (doc.get("workloads") or {}).values():
            seeds += [pair["seed"] for pair in workload.get("pairs", ())]
    return seeds


def first_op_seconds(stderr: str) -> float:
    """The wall seconds of a run's first op, from the worker's op log."""
    match = FIRST_OP.search(stderr)
    if match is None:
        raise ValueError("no 'op 0 (untraced)' line in the run's stderr")
    return float(match.group(1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run: its last stdout line, parsed,
    plus ``first_op_s``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["first_op_s"] = first_op_seconds(proc.stderr)
    return result


def spread(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles of one side's runs."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {name: float(f"{value:.6g}") for name, value
            in (("median", statistics.median(values)), ("q1", q1), ("q3", q3))}


def measure(checkouts: dict[str, Path], workload: str, seeds: list[int],
            seconds: float) -> list[dict]:
    """Alternating parent/change runs, one pair per seed."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds)
            for metric, entry in result["metrics"].items():
                pair[f"{side}_{metric}"] = float(f"{entry['value']:.6g}")
            pair[f"{side}_first_op_s"] = result["first_op_s"]
            pair[f"{side}_attempted"] = result["attempted"]
            pair[f"{side}_failed"] = result["failed"]
            pair[f"{side}_correct"] = result["correct"]
        print(f"{workload} seed {seed}: sweep_s parent {pair['parent_sweep_s']}"
              f" change {pair['change_sweep_s']}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def wins(pairs: list[dict], metric: str, better: str) -> int:
    """Pairs whose change run beat its parent run on ``metric``."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p[f"parent_{metric}"] - p[f"change_{metric}"]) > 0
               for p in pairs)


def worse_by(parent: float, change: float, better: str) -> float | None:
    """How much worse the change's median is, as a fraction of the parent's
    (None if the parent's is 0 and the change's worse)."""
    gap = (change - parent) if better == "lower" else (parent - change)
    if parent == 0:
        return None if gap > 0 else 0.0
    return round(gap / abs(parent), 4)


def verdict(pairs: list[dict], name: str, entry: dict, sides: dict) -> dict:
    """The no-regression reading of one metric: "within bound", "worse", or
    "unresolved" when the parent's own spread is wider than the bound,
    unless every change run beats every parent run."""
    parent, change = sides["parent"], sides["change"]
    gap = worse_by(parent["median"], change["median"], entry["better"])
    scale = abs(parent["median"]) or 1.0
    parent_spread = round((parent["q3"] - parent["q1"]) / scale, 4)
    runs = {side: [p[f"{side}_{name}"] for p in pairs] for side in SIDES}
    if entry["better"] == "higher":
        runs = {side: [-v for v in values] for side, values in runs.items()}
    if parent_spread > entry["bound"]:
        reading = ("better in every run" if max(runs["change"]) < min(runs["parent"])
                   else "unresolved")
    else:
        within = gap is not None and gap <= entry["bound"]
        reading = "within bound" if within else "worse"
    return {"worse_by": gap, "parent_spread": parent_spread,
            "bound": entry["bound"], "verdict": reading}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-metric spreads, wins and op counts of one workload's pairs."""
    summary = {"pairs": pairs,
               "change_won": wins(pairs, "sweep_s", metrics["sweep_s"]["better"])}
    for name, entry in metrics.items():
        sides = {side: spread([p[f"{side}_{name}"] for p in pairs]) for side in SIDES}
        summary[name] = {**sides, **verdict(pairs, name, entry, sides)}
    summary["first_op_s"] = {side: spread([p[f"{side}_first_op_s"] for p in pairs])
                             for side in SIDES}
    summary["ops_failed"] = {side: sum(p[f"{side}_failed"] for p in pairs)
                             for side in SIDES}
    summary["ops_attempted"] = {side: sum(p[f"{side}_attempted"] for p in pairs)
                                for side in SIDES}
    summary["gate_correct_every_run"] = all(p[f"{side}_correct"]
                                            for p in pairs for side in SIDES)
    summary["min_rate_ratio_identical_per_seed"] = all(
        p["parent_min_rate_ratio"] == p["change_min_rate_ratio"] for p in pairs)
    return summary


def claim(summary: dict, workload: str, metric: str, better: str) -> dict:
    """Whether the change's gain on ``metric`` meets the A/B rule."""
    pairs = summary["pairs"]
    won = wins(pairs, metric, better)
    parent, change = summary[metric]["parent"], summary[metric]["change"]
    gap = (parent["median"] - change["median"]) * (1 if better == "lower" else -1)
    iqr = parent["q3"] - parent["q1"]
    met = won * 10 >= 9 * len(pairs) and gap > iqr
    return {"workload": workload, "metric": metric, "rule": RULE, "met": met,
            "why": f"the change won {won} of {len(pairs)} pairs; the median gap "
                   f"({gap:.4g}) against the parent's interquartile range "
                   f"({iqr:.4g})"}


def cmd_run(args: argparse.Namespace) -> int:
    seconds, metrics = benchmark()
    if args.claim and args.claim.partition(":")[2] not in metrics:
        print(f"error: --claim names no end-to-end metric: {args.claim}",
              file=sys.stderr)
        return 2
    first = max(recorded_seeds(), default=0) + 1
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, checkouts[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        if len({tree_digest(c / "perfbench") for c in checkouts.values()}) != 1:
            print("error: the two sides' perfbench/ differ", file=sys.stderr)
            return 1
        workloads = {}
        for n, workload in enumerate(args.workload):
            seeds = list(range(first + n * args.pairs, first + (n + 1) * args.pairs))
            pairs = measure(checkouts, workload, seeds, seconds)
            workloads[workload] = summarize(pairs, metrics)
    doc = {
        "what": args.what,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "method": "Parent and change exported side by side with identical "
                  "perfbench/, run in alternating pairs, one fresh seed per "
                  "pair; the first pair of each workload runs the parent first "
                  "(each pair's `first` field). Quartiles are "
                  "statistics.quantiles(method='inclusive') over one side's "
                  "runs. worse_by is how much the change's median is worse "
                  "than the parent's and parent_spread the parent's "
                  "interquartile range, both as fractions of the parent's "
                  "median; verdict reads them against the metric's "
                  "BENCHMARK.json bound. first_op_s is each run's first op, "
                  "from its 'op 0 (untraced)' stderr line, with no verdict. "
                  "Every run made is listed.",
        "machine": f"{platform.machine()}, {platform.system()}, Python "
                   f"{platform.python_version()}",
        "date": datetime.date.today().isoformat(),
        "claim": None,
        "workloads": workloads,
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = claim(workloads[workload], workload, metric,
                             metrics[metric]["better"])
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for workload, summary in workloads.items():
        print(f"{workload}: change won {summary['change_won']} of "
              f"{len(summary['pairs'])} pairs on sweep_s; ops failed "
              f"{summary['ops_failed']}")
    if doc["claim"]:
        met = "met" if doc["claim"]["met"] else "not met"
        print(f"claim {args.claim} {met}: {doc['claim']['why']}")
    return 0


def diff(old: dict, new: dict, names: tuple[str, str]) -> list[str]:
    """Lines setting the parent and change medians of two files side by side."""
    lines = [f"{'':34} {names[0]:>24} {names[1]:>24}"]
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            continue
        a, b = old["workloads"][workload], new["workloads"][workload]
        for metric in [m for m, v in a.items() if m in b and isinstance(v, dict)
                       and isinstance(v.get("parent"), dict)]:
            cells = [f"{d[metric]['parent']['median']:.4g} -> "
                     f"{d[metric]['change']['median']:.4g}" for d in (a, b)]
            lines.append(f"{workload + ' ' + metric:34} {cells[0]:>24} {cells[1]:>24}")
    return lines


def cmd_diff(args: argparse.Namespace) -> int:
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff]
    lines = diff(*docs, names=tuple(Path(p).name for p in args.diff))
    if len(lines) == 1:
        print("error: no workload in common", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two BENCH files instead of measuring")
    parser.add_argument("--parent", default="HEAD", help="git revision")
    parser.add_argument("--change", default=WORKTREE,
                        help=f"git revision, or {WORKTREE} (the default)")
    parser.add_argument("--workload", action="append",
                        help="benchmark workload, repeatable")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default 10)")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="state whether this gain meets the A/B rule")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--out", help="BENCH file to write")
    args = parser.parse_args(argv)
    if args.diff:
        return cmd_diff(args)
    if not args.workload or not args.out or args.pairs < 1:
        parser.error("measuring needs --workload, --out and --pairs >= 1")
    if args.claim and args.claim.partition(":")[0] not in args.workload:
        parser.error("--claim names a workload that is not measured")
    # Unwind on SIGTERM as on Ctrl-C, so the exported checkouts are removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    return cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
