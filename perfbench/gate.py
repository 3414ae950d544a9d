"""Correctness gate: does one sweep CSV match what the workload must give?

Every fact checked here is independent of the master seed (row shape,
per-placement upper bounds, normalization references, exact optima), so
the gate holds on seeds never seen.  The facts live in data/expected.json
(written by record.py from a trusted commit).
"""

from __future__ import annotations

import csv
import math
import statistics

from workloads import ORDER_SENSITIVE, STRATEGIES, WORKLOADS

REL_TOL = 1e-8  # CSV floats carry 9 significant digits


def loss_key(loss: float) -> str:
    """Key of one switch-loss value in data/expected.json."""
    return format(float(loss), "g")


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= REL_TOL * abs(want)


def expected_rows(workload: str, config: dict, facts: dict) -> list[tuple]:
    """(loss, source, strategy, status, runs) of every row, in sweep order."""
    gated = not WORKLOADS[workload]["exact_runs"]
    sources = config["sources"] or facts["nodes"]
    rows = []
    for loss in config["wss_losses"]:
        for source in sources:
            for strategy in STRATEGIES:
                if strategy == "exact" and gated:
                    rows.append((loss, source, strategy, "budget", 0))
                else:
                    runs = config["runs"] if strategy in ORDER_SENSITIVE else 1
                    rows.append((loss, source, strategy, "ok", runs))
    return rows


def check_csv(path, workload: str, config: dict, facts: dict,
              read_csv_rows) -> tuple[list[str], float | None]:
    """Return (problems, min_rate_ratio) for one op's CSV.

    ``read_csv_rows`` is the program's own parser (eprnet.harness).  An
    empty problem list means the op passed.  ``min_rate_ratio`` is the
    mean over ok non-exact rows of mean_min_rate / fractional optimum.
    """
    try:
        rows = read_csv_rows(path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"CSV does not parse: {exc}"], None
    want = expected_rows(workload, config, facts)
    if len(rows) != len(want):
        return [f"{len(rows)} rows, expected {len(want)}"], None

    problems: list[str] = []
    ratios: list[float] = []
    refs: dict[str, list[float]] = {loss_key(x): [] for x in config["wss_losses"]}
    for idx, (row, (loss, source, strategy, status, runs)) in enumerate(zip(rows, want)):
        where = f"row {idx} ({loss_key(loss)} dB, {source}, {strategy})"
        try:
            shape = (row["topology"], float(row["wss_loss_db"]), row["source_node"],
                     row["strategy"], row["status"], int(row["runs"]), int(row["seed"]))
            if shape != (facts["topology"], float(loss), source, strategy, status,
                         runs, config["seed"]):
                problems.append(f"{where}: shape {shape}")
                continue
            if status != "ok":
                continue
            mean = float(row["mean_min_rate"])
            normalized = float(row["mean_min_rate_normalized"])
            jain = float(row["mean_jain"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: unreadable ({exc!r})")
            continue
        place = facts["placements"][f"{loss_key(loss)}/{source}"]
        bound = place["fractional_optimum"]
        if not all(math.isfinite(v) for v in (mean, normalized, jain)):
            problems.append(f"{where}: non-finite value")
            continue
        if strategy == "lp-round":
            low = place["lp_round_floor"]
            low_ok = mean >= low * (1 - REL_TOL)
        else:
            low, low_ok = 0.0, mean > 0.0
        if not low_ok or mean > bound * (1 + REL_TOL):
            problems.append(f"{where}: mean_min_rate {mean!r} outside {low!r}..{bound!r}")
        k = place["pairs"]
        if not (1 / k) * (1 - REL_TOL) <= jain <= 1 + REL_TOL:
            problems.append(f"{where}: mean_jain {jain!r} outside [1/{k}, 1]")
        if "exact_optimum" in place:
            optimum = place["exact_optimum"]
            if strategy == "exact" and not _close(mean, optimum):
                problems.append(f"{where}: exact optimum {mean!r} != {optimum!r}")
            if mean > optimum * (1 + REL_TOL):
                problems.append(f"{where}: {mean!r} beats the exact optimum {optimum!r}")
        if normalized > 0.0:
            refs[loss_key(loss)].append(mean / normalized)
        if strategy != "exact":
            ratios.append(mean / bound)

    for key, values in refs.items():
        want_ref = facts["references"][key]
        # Each ratio of two 9-digit values is off by up to ~1e-8; the
        # median over a loss value's rows is far tighter.
        if not values:
            problems.append(f"{key} dB: no row gives the normalization reference")
        elif not _close(got := statistics.median(values), want_ref):
            problems.append(f"{key} dB: normalization reference {got!r} != {want_ref!r}")
    ratio = math.fsum(ratios) / len(ratios) if ratios else None
    return problems, ratio
