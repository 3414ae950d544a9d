import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprnet import (
    ALL_STRATEGIES,
    AllocationError,
    AllocationInstance,
    ConfigError,
    ExperimentConfig,
    RateVector,
    allocate_once,
    config_from_json,
    derive_seed,
    emit_csv,
    emit_plot,
    exact_maxmin,
    first_fit,
    read_csv_rows,
    round_robin,
    run_placement_sweep,
    splitmix64,
)


def small_config(tmp_path=None, **overrides):
    base = dict(
        topology_path="simple6", seed=1234, wss_losses=(8.0,),
        strategies=("lpt", "round-robin"), runs=5, sources=("A", "B"),
        channels=16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def reference_splitmix64(value: int) -> int:
    mask = (1 << 64) - 1
    z = (value + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSeeding:
    def test_splitmix_canonical_vector(self):
        # First output of the published generator seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("value", [1, 2, 7, 2 ** 32, 2 ** 64 - 1])
    def test_splitmix_matches_reference(self, value):
        assert splitmix64(value) == reference_splitmix64(value)

    def test_derive_seed_deterministic(self):
        a = derive_seed(99, 0, 1, 2, 3)
        assert a == derive_seed(99, 0, 1, 2, 3)
        assert 0 <= a < 2 ** 64

    def test_derive_seed_separates_indices(self):
        base = derive_seed(7, 0, 0, 0, 0)
        assert derive_seed(7, 1, 0, 0, 0) != base
        assert derive_seed(7, 0, 1, 0, 0) != base
        assert derive_seed(7, 0, 0, 1, 0) != base
        assert derive_seed(7, 0, 0, 0, 1) != base
        assert derive_seed(8, 0, 0, 0, 0) != base

    def test_derive_seed_rejects_negative_master(self):
        with pytest.raises(ConfigError, match="master seed must be >= 0, got -1"):
            derive_seed(-1, 0, 0, 0, 0)

    @pytest.mark.parametrize("master", [2.5, True, "3"])
    def test_derive_seed_rejects_non_int_master(self, master):
        with pytest.raises(ConfigError,
                           match=re.escape(f"must be an int, got {master!r}")):
            derive_seed(master, 0, 0, 0, 0)

    @pytest.mark.parametrize("master", [2 ** 64, 2 ** 64 + 7])
    def test_derive_seed_rejects_master_beyond_64_bits(self, master):
        # 2**64 + k once folded into k.
        with pytest.raises(ConfigError,
                           match=re.escape(f"master seed must be < 2**64, got {master}")):
            derive_seed(master, 0, 0, 0, 0)

    @pytest.mark.parametrize("index", [2.5, True, False, "1", None])
    def test_derive_seed_rejects_non_int_index(self, index):
        # True once passed as 1, and 2.5 raised a bare TypeError.
        with pytest.raises(ConfigError,
                           match=re.escape(f"seed index must be an int, got {index!r}")):
            derive_seed(1, 0, index)

    @pytest.mark.parametrize("index", [-1, 2 ** 64, 2 ** 64 + 3])
    def test_derive_seed_rejects_index_outside_64_bits(self, index):
        # -1 once folded into 2**64 - 1, and 2**64 + k into k.
        with pytest.raises(ConfigError, match=f"seed index must be .*, got {index}$"):
            derive_seed(1, index, 0)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_run_seed_is_one_step_past_the_row_seed(self, words):
        # The sweep derives each row's seed once and takes this last step per run.
        master, a, b, c, r = words
        assert (splitmix64(derive_seed(master, a, b, c) ^ r)
                == derive_seed(master, a, b, c, r))

    def test_derive_seed_accepts_64_bit_edges(self):
        top = 2 ** 64 - 1
        assert derive_seed(top, 0, top) == splitmix64(splitmix64(top) ^ top)
        assert derive_seed(0) == 0


# Declared field types, written out independently of the annotations: a
# type; a one-element list or tuple for a tuple of it; a one-element set for
# "it or None".
FIELD_TYPES = {
    "topology_path": str, "seed": int, "wss_losses": [float],
    "strategies": [str], "runs": int, "sources": {(str,)},
    "channels": int, "channel_pitch_nm": float,
    "fwhm_nm": float, "peak_rate": float,
    "fiber_loss_db_per_km": float,
    "exact_max_mk": int, "exact_node_budget": int, "output_path": {str},
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.integers(),
    st.floats(), st.floats(0.0, 100.0), st.text(max_size=3),
    st.sampled_from(ALL_STRATEGIES),
)
CONFIG_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


def has_type(value, kind):
    if isinstance(kind, set):
        (inner,) = kind
        return value is None or has_type(value, inner)
    if isinstance(kind, (list, tuple)):
        return (type(value) is tuple
                and all(has_type(item, kind[0]) for item in value))
    if kind is float:
        return type(value) is float and math.isfinite(value)
    return type(value) is kind


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig(topology_path="simple6", seed=1)
        assert config.wss_losses == (4.0, 8.0)
        assert config.strategies == ALL_STRATEGIES
        assert config.runs == 1000
        assert config.channels == 200

    @pytest.mark.parametrize("bad", [
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(runs=0),
        dict(strategies=("warp",)),
        dict(wss_losses=()),
        dict(strategies=()),
        dict(sources=()),
        dict(channels=0),
        dict(wss_losses=(-1.0,)),
        dict(seed=True),
        dict(seed=False),
        dict(wss_losses=(math.nan,)),
        dict(wss_losses=(4.0, math.inf)),
        dict(exact_node_budget=0),
        dict(exact_max_mk=-5),
        # Each spectrum and loss value, by ChannelGrid's, SpectrumProfile's
        # and LossParams' rules, when the config is made.
        dict(channel_pitch_nm=0.0),
        dict(channel_pitch_nm=-0.5),
        dict(fwhm_nm=0.0),
        dict(fwhm_nm=-1.0),
        dict(peak_rate=-2.0),
        dict(fiber_loss_db_per_km=-3.0),
        dict(fwhm_nm=-1.0, peak_rate=-2.0, channel_pitch_nm=-0.5,
             fiber_loss_db_per_km=-3.0),
        # Channel 1 would sit at 1550 - 20 * 155 / 2 = 0 nm.
        dict(channels=156, channel_pitch_nm=20.0),
    ])
    def test_invalid_values_rejected(self, bad):
        base = dict(topology_path="simple6", seed=1)
        base.update(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig(**base)

    @pytest.mark.parametrize("bad", [
        '"seed": true',
        '"seed": false',
        '"seed": 1, "wss_losses": [NaN]',
        '"seed": 1, "wss_losses": [4.0, Infinity]',
        '"seed": 1, "runs": 2.5',
        '"seed": 1, "channels": 20.5',
        '"seed": 1, "channel_width_nm": "0.1"',
        '"seed": 1, "exact_max_mk": "x"',
        '"seed": 1, "exact_node_budget": null',
        '"seed": 1, "sources": 5',
        '"seed": 1, "sources": "AB"',
        '"seed": 1, "strategies": [1]',
        '"seed": 1, "sources": ["A", "A"]',
        '"seed": 1, "wss_losses": [8, 8.0]',
        # A removed key is refused, whatever its value.
        '"seed": 1, "exclude_u_turns": "no"',
        '"seed": 1, "exclude_u_turns": 0',
        '"seed": 1, "exclude_u_turns": false',
        '"seed": 1, "channel_width_nm": 0.1',
        '"seed": 1, "center_wavelength_nm": 1550.0',
        '"seed": 1, "topology_path": 7',
        '"seed": 1, "output_path": 7',
        '"seed": 1, "peak_rate": true',
        '"seed": 1, "fwhm_nm": 1e400',
        '"seed": 1.0',
    ])
    def test_invalid_json_values_rejected(self, tmp_path, bad):
        path = tmp_path / "config.json"
        path.write_text('{"topology_path": "simple6", ' + bad + '}')
        with pytest.raises(ConfigError):
            config_from_json(path)

    def test_empty_sources_rejected_null_sweeps_every_node(self, tmp_path):
        # An empty list would sweep nothing and write a header-only CSV.
        path = tmp_path / "config.json"
        path.write_text('{"topology_path": "simple6", "seed": 1, "sources": []}')
        message = "sources must not be empty (null sweeps every node)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_json(path)
        path.write_text('{"topology_path": "simple6", "seed": 1, "sources": null}')
        assert config_from_json(path).sources is None

    def test_json_round_trip(self, tmp_path):
        doc = {
            "topology_path": "simple6",
            "seed": 77,
            "wss_losses": [4.0, 8.0],
            "strategies": ["lpt"],
            "runs": 3,
            "sources": ["A"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = config_from_json(path)
        assert config.seed == 77
        assert config.wss_losses == (4.0, 8.0)
        assert config.strategies == ("lpt",)
        assert config.sources == ("A",)

    def test_json_numbers_take_the_declared_types(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "simple6", "seed": 1,
                                    "wss_losses": [4, 8], "peak_rate": 2}))
        config = config_from_json(path)
        assert config.wss_losses == (4.0, 8.0)
        assert type(config.peak_rate) is float

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(FIELD_TYPES)), CONFIG_VALUES,
                           max_size=4))
    def test_loaded_fields_have_their_declared_types(self, changes):
        doc = {"topology_path": "simple6", "seed": 1, **changes}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            try:
                config = config_from_json(path)
            except ConfigError:
                return
        for name, kind in FIELD_TYPES.items():
            assert has_type(getattr(config, name), kind), name

    def test_unknown_json_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "x", "seed": 1,
                                    "rngs": "pcg"}))
        with pytest.raises(ConfigError):
            config_from_json(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "simple6"}))
        with pytest.raises(ConfigError):
            config_from_json(path)

    def test_order_sensitive_membership(self):
        # Order-sensitive strategies are averaged over `runs` shuffles;
        # the others run once.
        config = small_config(strategies=ALL_STRATEGIES, runs=3,
                              sources=("A",), channels=4)
        runs = {row.strategy: row.runs for row in run_placement_sweep(config).rows}
        assert runs == {"exact": 3, "first-fit": 3, "round-robin": 3,
                        "random": 3, "lpt": 1, "bd-matching": 1, "lp-round": 1}

    @pytest.mark.parametrize("field, values, repeated", [
        ("wss_losses", (8.0, 4.0, 8), "8.0"),
        ("strategies", ("lpt", "exact", "lpt"), "'lpt'"),
        ("sources", ("A", "B", "A"), "'A'"),
    ])
    def test_repeated_entry_rejected(self, field, values, repeated):
        # A repeat would give one combination several rows.
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(topology_path="simple6", seed=1, **{field: values})
        assert field in str(exc.value) and repeated in str(exc.value)


class TestSweep:
    def test_row_grid_complete(self):
        config = small_config(wss_losses=(4.0, 8.0))
        report = run_placement_sweep(config)
        assert len(report.rows) == 2 * 2 * 2
        combos = {(r.wss_loss_db, r.source_node, r.strategy)
                  for r in report.rows}
        assert len(combos) == 8
        assert {r.status for r in report.rows} == {"ok"}
        assert len(report.references) == 2
        for row in report.rows:
            reference = report.reference_for(row.wss_loss_db)
            assert row.mean_min_rate_normalized == pytest.approx(
                row.mean_min_rate / reference, rel=1e-12)

    def test_default_sources_cover_all_nodes(self):
        config = small_config(sources=None, strategies=("lpt",), runs=1)
        report = run_placement_sweep(config)
        assert {r.source_node for r in report.rows} == set("ABCDEF")

    def test_order_sensitive_run_counts(self):
        config = small_config(strategies=("round-robin", "lpt"), runs=7)
        report = run_placement_sweep(config)
        by_strategy = {r.strategy: r for r in report.rows if r.source_node == "A"}
        assert by_strategy["round-robin"].runs == 7
        assert by_strategy["lpt"].runs == 1

    def test_skipped_placements_marked(self, tmp_path):
        doc = {
            "name": "chain3",
            "nodes": [{"id": "s", "x_km": 0.0, "y_km": 0.0},
                      {"id": "a", "x_km": 1.0, "y_km": 0.0},
                      {"id": "b", "x_km": 2.0, "y_km": 0.0}],
            "links": [{"a": "s", "b": "a", "distance_km": 1.0},
                      {"a": "a", "b": "b", "distance_km": 1.0}],
        }
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps(doc))
        config = ExperimentConfig(topology_path=str(path), seed=5,
                                  wss_losses=(8.0,), strategies=("lpt",),
                                  runs=1, channels=8)
        report = run_placement_sweep(config)
        status = {r.source_node: r.status for r in report.rows}
        assert status == {"s": "skipped", "a": "ok", "b": "skipped"}
        skipped = [r for r in report.rows if r.status == "skipped"]
        assert all(r.runs == 0 and r.mean_min_rate is None for r in skipped)

    def test_budget_gate_marks_exact(self):
        config = small_config(strategies=("exact",), runs=2, channels=40,
                              exact_max_mk=10)
        report = run_placement_sweep(config)
        assert all(r.status == "budget" for r in report.rows)

    def test_budget_stop_marks_exact(self, monkeypatch):
        # simple6/A with 32 channels for its 15 pairs: its search cannot
        # close at the root (it stops at 5,000 nodes in the allocate
        # golden), whereas source B's closes there, and with fewer channels
        # than pairs the seed would be optimal at the root.  No run
        # completes, so each one searches with its own pair order.
        from eprnet import harness
        calls = []
        exact = harness.exact_maxmin

        def counting(*args, **kw):
            calls.append(kw["pair_order"])
            return exact(*args, **kw)

        monkeypatch.setattr(harness, "exact_maxmin", counting)
        config = small_config(strategies=("exact",), runs=2, channels=32,
                              sources=("A",), exact_node_budget=1)
        report = run_placement_sweep(config)
        assert all(r.status == "budget" and r.runs == 2
                   and r.mean_min_rate is not None for r in report.rows)
        assert len(calls) == 2 * len(report.rows)
        assert len(set(calls)) == len(calls)

    def test_strategies_run_through_module_names(self, monkeypatch):
        # Patching a harness attribute must reach every sweep run of a
        # strategy without a row kernel (the benchmark's tracer relies on
        # it).  The exact search runs once: its first proven optimum serves
        # the other two runs.  First-fit, round-robin and random run their
        # row kernels and never call the public functions.
        from eprnet import harness
        calls = []
        for name in ("exact_maxmin", "modified_lpt", "bezakova_matching",
                     "lp_round"):
            def counting(*args, _name=name, _fn=getattr(harness, name), **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(harness, name, counting)
        for name in ("first_fit", "round_robin", "random_balanced"):
            def forbidden(*args, _name=name, **kw):
                raise AssertionError(f"the sweep called {_name}")
            monkeypatch.setattr(harness, name, forbidden)
        ring4 = Path(__file__).resolve().parent / "golden" / "ring4.json"
        config = small_config(topology_path=str(ring4), sources=("a",),
                              strategies=ALL_STRATEGIES, runs=3, channels=8)
        rows = run_placement_sweep(config).rows
        assert calls == ["exact_maxmin", "modified_lpt", "bezakova_matching",
                         "lp_round"]
        assert rows[0].strategy == "exact" and rows[0].status == "ok"
        assert rows[0].runs == 3 and rows[0].std_min_rate == 0.0
        assert [(r.strategy, r.status, r.runs) for r in rows[1:4]] == [
            ("first-fit", "ok", 3), ("round-robin", "ok", 3),
            ("random", "ok", 3)]

    @pytest.mark.parametrize("exact_max_mk, status", [(48, "ok"),
                                                       (47, "budget")])
    def test_exact_runs_up_to_exact_max_mk(self, exact_max_mk, status):
        # ring4's source a serves 6 pairs: 8 channels make 48, which the
        # gate still runs; only beyond it is the row "budget".
        ring4 = Path(__file__).resolve().parent / "golden" / "ring4.json"
        config = small_config(topology_path=str(ring4), sources=("a",),
                              strategies=("exact",), runs=2, channels=8,
                              exact_max_mk=exact_max_mk)
        (row,) = run_placement_sweep(config).rows
        assert row.status == status
        assert row.runs == (2 if status == "ok" else 0)

    def test_each_placement_routed_once_per_loss(self, monkeypatch):
        from eprnet import harness, metrics
        routed = []
        route = harness.all_pair_routes

        def counting(graph):
            routed.append(graph.source)
            return route(graph)

        def forbidden(graph):
            raise AssertionError("normalization must reuse the sweep's tables")

        monkeypatch.setattr(harness, "all_pair_routes", counting)
        monkeypatch.setattr(metrics, "all_pair_routes", forbidden)
        config = small_config(wss_losses=(4.0, 8.0))
        report = run_placement_sweep(config)
        node_ids = ["A", "B", "C", "D", "E", "F"]
        assert routed == node_ids * 2
        assert len(report.rows) == 2 * 2 * 2

    def test_deterministic_rows(self):
        config = small_config(strategies=("random", "first-fit"), runs=4)
        a = run_placement_sweep(config)
        b = run_placement_sweep(config)
        assert a == b


class TestCsv:
    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(strategies=("random", "round-robin"), runs=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_placement_sweep(config), p1)
        emit_csv(run_placement_sweep(config), p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"# eprnet sweep:")
        assert b"\r\n" in b1

    def test_round_trip_values(self, tmp_path):
        config = small_config(runs=3)
        report = run_placement_sweep(config)
        path = tmp_path / "out.csv"
        emit_csv(report, path)
        rows = read_csv_rows(path)
        assert len(rows) == len(report.rows)
        for parsed, row in zip(rows, report.rows):
            assert parsed["topology"] == row.topology
            assert parsed["strategy"] == row.strategy
            assert parsed["source_node"] == row.source_node
            assert parsed["status"] == row.status
            assert int(parsed["runs"]) == row.runs
            assert float(parsed["mean_min_rate"]) == pytest.approx(
                row.mean_min_rate, rel=1e-8)

    def test_header_matches_row_fields(self, tmp_path):
        config = small_config(runs=1, strategies=("lpt",))
        report = run_placement_sweep(config)
        path = tmp_path / "out.csv"
        emit_csv(report, path)
        header = path.read_text().splitlines()[1]
        assert header.split(",") == [
            "topology", "wss_loss_db", "source_node", "strategy",
            "mean_min_rate", "mean_min_rate_normalized", "mean_jain",
            "runs", "seed", "status", "std_min_rate", "std_jain",
        ]

    def test_rows_of_a_hash_named_topology_read_back(self, tmp_path):
        # Each data row starts with the topology's name; only the comment
        # line above the header is skipped.
        path = tmp_path / "hash.json"
        path.write_text(json.dumps({
            "name": "#lab", "nodes": [{"id": i} for i in "abc"],
            "links": [{"a": a, "b": b, "distance_km": 1.0}
                      for a, b in ("ab", "bc", "ca")]}))
        report = run_placement_sweep(small_config(
            topology_path=str(path), runs=2, strategies=("lpt",), sources=None,
            wss_losses=(4.0, 8.0)))
        emit_csv(report, tmp_path / "hash.csv")
        rows = read_csv_rows(tmp_path / "hash.csv")
        assert len(rows) == len(report.rows) == 6
        assert {row["topology"] for row in rows} == {"#lab"}

    def test_comment_line_names_inputs(self, tmp_path):
        config = small_config(runs=1, strategies=("lpt",), seed=31337)
        path = tmp_path / "out.csv"
        emit_csv(run_placement_sweep(config), path)
        comment = path.read_text().splitlines()[0]
        assert comment.startswith("#")
        assert "seed=31337" in comment
        assert "simple6" in comment
        assert "splitmix64" in comment


class TestPlot:
    def render(self, tmp_path, config):
        report = run_placement_sweep(config)
        path = tmp_path / "plot.svg"
        emit_plot(report, path)
        return report, ET.parse(path).getroot()

    def test_well_formed_with_expected_bars(self, tmp_path):
        config = small_config(strategies=("lpt", "round-robin", "first-fit"),
                              runs=2)
        report, root = self.render(tmp_path, config)
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        bars = [el for el in root.iter("{http://www.w3.org/2000/svg}rect")
                if el.get("class") == "bar"]
        assert len(bars) == 2 * 3
        for bar in bars:
            value = float(bar.get("data-value"))
            assert value >= 0
            assert bar.get("data-source") in {"A", "B"}
            assert bar.get("data-strategy") in {"lpt", "round-robin",
                                                "first-fit"}

    def test_bar_heights_proportional(self, tmp_path):
        config = small_config(strategies=("lpt", "round-robin"), runs=2)
        report, root = self.render(tmp_path, config)
        bars = [el for el in root.iter("{http://www.w3.org/2000/svg}rect")
                if el.get("class") == "bar"]
        # Heights are written with two decimals, so the common scale is
        # exact only up to that rounding.
        ratios = {float(b.get("height")) / float(b.get("data-value"))
                  for b in bars if float(b.get("data-value")) > 0}
        assert max(ratios) - min(ratios) < 1e-3 * max(ratios)

    def test_one_panel_per_loss(self, tmp_path):
        config = small_config(wss_losses=(4.0, 8.0), runs=1,
                              strategies=("lpt",))
        report, root = self.render(tmp_path, config)
        texts = [el.text for el in
                 root.iter("{http://www.w3.org/2000/svg}text") if el.text]
        assert any("4" in t and "dB" in t for t in texts)
        assert any("8" in t and "dB" in t for t in texts)

    def test_markup_in_names_is_escaped(self, tmp_path):
        ids = ["a&b", 'c"d', "e"]
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps({
            "name": "R&D <lab>",
            "nodes": [{"id": i} for i in ids],
            "links": [{"a": a, "b": b, "distance_km": 10.0}
                      for a, b in zip(ids, ids[1:] + ids[:1])],
        }))
        config = ExperimentConfig(topology_path=str(topology), seed=1, runs=2,
                                  channels=20, strategies=("lpt", "first-fit"))
        report, root = self.render(tmp_path, config)
        bars = [el for el in root.iter("{http://www.w3.org/2000/svg}rect")
                if el.get("class") == "bar"]
        assert len(bars) == 2 * 3 * 2
        assert {bar.get("data-source") for bar in bars} == set(ids)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert set(ids) <= set(texts)
        assert any(t.startswith("R&D <lab>: switch loss") for t in texts if t)

    def test_no_bar_for_skipped_or_budget_rows(self, tmp_path):
        # From a, the chain a-b-c cannot route b-c; exact is gated off.
        topology = tmp_path / "chain3.json"
        topology.write_text(json.dumps({
            "name": "chain3", "nodes": [{"id": i} for i in "abc"],
            "links": [{"a": "a", "b": "b", "distance_km": 1.0},
                      {"a": "b", "b": "c", "distance_km": 1.0}],
        }))
        config = ExperimentConfig(topology_path=str(topology), seed=1, runs=2,
                                  channels=8, sources=("a", "b"),
                                  strategies=("exact", "lpt"), exact_max_mk=0)
        report, root = self.render(tmp_path, config)
        assert [(r.source_node, r.strategy, r.status) for r in report.rows] == [
            ("a", "exact", "skipped"), ("a", "lpt", "skipped"),
            ("b", "exact", "budget"), ("b", "lpt", "ok")] * 2
        bars = [el for el in root.iter("{http://www.w3.org/2000/svg}rect")
                if el.get("class") == "bar"]
        assert [(b.get("data-source"), b.get("data-strategy")) for b in bars] == [
            ("b", "lpt")] * 2

    def test_empty_report_rejected(self, tmp_path):
        from eprnet import ExperimentReport
        empty = ExperimentReport("simple6", 1, (), ())
        with pytest.raises(ValueError):
            emit_plot(empty, tmp_path / "nope.svg")


class TestAllocateOnce:
    def make_instance(self):
        return AllocationInstance(
            (1.0, 0.5), RateVector((2.0, 1.0, 1.0, 0.5)))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_every_strategy_dispatches(self, strategy):
        allocation, completed = allocate_once(self.make_instance(), strategy,
                                              seed=3)
        assert len(allocation.assignment) == 4
        assert completed

    def test_exact_budget_stop_is_not_completed(self):
        etas = (1.0, 0.8, 0.6, 0.5, 0.3, 0.2)
        rates = RateVector(tuple(1.0 / (x + 1) for x in range(10)))
        instance = AllocationInstance(etas, rates)
        allocation, completed = allocate_once(instance, "exact", seed=3,
                                              node_budget=5)
        assert not completed
        assert len(allocation.assignment) == 10
        _, completed = allocate_once(instance, "exact", seed=3)
        assert completed

    def test_seed_orders_pairs_only_where_the_strategy_reads_it(self):
        instance = AllocationInstance(
            (1.0, 0.7, 0.7, 0.4, 0.2),
            RateVector(tuple(1.0 / (x + 1) for x in range(12))))
        for seed in (3, 11, 2 ** 63):
            order = tuple(int(p) for p in np.random.Generator(
                np.random.PCG64(seed)).permutation(instance.pair_count))
            assert allocate_once(instance, "first-fit", seed=seed) == (
                first_fit(instance, order), True)
            assert allocate_once(instance, "round-robin", seed=seed) == (
                round_robin(instance, order), True)
            assert allocate_once(instance, "exact", seed=seed)[0] == (
                exact_maxmin(instance, pair_order=order).allocation)
            for strategy in ("lpt", "bd-matching", "lp-round"):
                assert (allocate_once(instance, strategy, seed=seed)
                        == allocate_once(instance, strategy))

    def test_random_needs_seed(self):
        with pytest.raises(AllocationError, match="seed"):
            allocate_once(self.make_instance(), "random")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            allocate_once(self.make_instance(), "greedy")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_seed_outside_64_bits_rejected(self, strategy, seed):
        # The rule ExperimentConfig applies, for strategies that ignore
        # the seed too.
        with pytest.raises(ConfigError, match=f"got {seed}$"):
            allocate_once(self.make_instance(), strategy, seed=seed)

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_non_int_seed_rejected(self, strategy, seed):
        # True would otherwise run as seed 1, which ExperimentConfig refuses.
        with pytest.raises(ConfigError,
                           match=re.escape(f"must be an int, got {seed!r}")):
            allocate_once(self.make_instance(), strategy, seed=seed)

    def test_seed_at_64_bit_edges_accepted(self):
        for seed in (0, 2 ** 64 - 1):
            _, completed = allocate_once(self.make_instance(), "random", seed=seed)
            assert completed
