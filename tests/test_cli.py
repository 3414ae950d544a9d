import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from eprnet.cli import build_parser, main
from eprnet.harness import ExperimentConfig, read_csv_rows
from eprnet.netgraph import LossParams
from eprnet.spectrum import ChannelGrid, SpectrumProfile

RING4 = Path(__file__).resolve().parent / "golden" / "ring4.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Grid and profile flags that would print inf, nan or all-zero rates.
NON_FINITE_FLAGS = [("--peak-rate", "inf"), ("--peak-rate", "nan"),
                    ("--width-nm", "nan"), ("--center-nm", "nan"),
                    ("--center-nm", "inf"), ("--pitch-nm", "inf"),
                    ("--pitch-nm", "nan"), ("--fwhm-nm", "inf"),
                    ("--fwhm-nm", "1e-200"), ("--fwhm-nm", "1e-160"),
                    ("--peak-rate", "1e308")]
# `allocate` has no label flags (--width-nm, --center-nm); in their place,
# loss flags that would give inf or nan transmittances.
ALLOCATE_NON_FINITE_FLAGS = [
    flag for flag in NON_FINITE_FLAGS if flag[0] not in ("--width-nm", "--center-nm")
] + [("--wss-db", "nan"), ("--fiber-db-per-km", "inf"), ("--fiber-db-per-km", "nan")]


def assert_one_line_error(code, err):
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def chain3(tmp_path):
    """The chain a-b-c: from a, b and c share the one fiber a->b."""
    doc = {"name": "chain3", "nodes": [{"id": i} for i in "abc"],
           "links": [{"a": "a", "b": "b", "distance_km": 1.0},
                     {"a": "b", "b": "c", "distance_km": 1.0}]}
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(doc))
    return str(path)


def no_length(tmp_path):
    """A triangle whose link a-b has no distance and a has no coordinates."""
    doc = {"name": "nolength",
           "nodes": [{"id": "a"}, {"id": "b", "x_km": 0.0, "y_km": 0.0},
                     {"id": "c", "x_km": 1.0, "y_km": 0.0}],
           "links": [{"a": "a", "b": "b"}, {"a": "b", "b": "c"},
                     {"a": "c", "b": "a", "distance_km": 1.0}]}
    path = tmp_path / "nolength.json"
    path.write_text(json.dumps(doc))
    return str(path)


NO_LENGTH_ERROR = ("error: link a-b has no distance and endpoint coordinates "
                   "are incomplete\n")


class TestRates:
    def test_anchor_values_present(self, capsys):
        code, out, _ = run(capsys, "rates")
        assert code == 0
        assert "1530.1" in out
        assert "1569.9" in out

    @pytest.mark.parametrize("flag", NON_FINITE_FLAGS)
    def test_non_finite_flag_is_one_line_error(self, capsys, flag):
        code, out, err = run(capsys, "rates", *flag)
        assert_one_line_error(code, err)
        assert out == ""

    def test_channel_at_zero_wavelength_is_one_line_error(self, capsys):
        code, _, err = run(capsys, "rates", "--channels", "3",
                           "--pitch-nm", "775", "--center-nm", "775")
        assert_one_line_error(code, err)

    def test_width_and_center_label_channels_only(self, capsys):
        # `rates` alone takes the label flags: they move the wavelength,
        # frequency and bandwidth columns, never the rates.
        _, plain, _ = run(capsys, "rates", "--channels", "4")
        code, labelled, _ = run(capsys, "rates", "--channels", "4",
                                "--width-nm", "0.05", "--center-nm", "1310")
        assert code == 0
        rows = [line.split() for line in plain.splitlines()[1:-1]]
        moved = [line.split() for line in labelled.splitlines()[1:-1]]
        assert [r[4] for r in rows] == [r[4] for r in moved]
        for a, b in zip(rows, moved):
            assert all(x != y for x, y in zip(a[1:4], b[1:4]))
        assert moved[0][1] == "1309.7000"
        assert plain.splitlines()[-1] == labelled.splitlines()[-1]

    def test_pitch_tighter_than_the_default_width_runs(self, capsys):
        # The width narrows to the pitch, as in `allocate` and `sweep`.
        argv = ["rates", "--channels", "3", "--pitch-nm", "0.05"]
        code, tight, err = run(capsys, *argv)
        assert code == 0 and err == ""
        _, explicit, _ = run(capsys, *argv, "--width-nm", "0.05")
        assert ([line.split()[3] for line in tight.splitlines()[:-1]]
                == [line.split()[3] for line in explicit.splitlines()[:-1]])
        assert tight.splitlines()[0].split()[3] == "bw_GHz"

    def test_width_wider_than_the_pitch_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "rates", "--channels", "4",
                             "--pitch-nm", "0.2", "--width-nm", "0.3")
        assert_one_line_error(code, err)
        assert out == ""
        assert "got 0.2 < 0.3" in err

    def test_help_states_the_derived_width(self, capsys):
        with pytest.raises(SystemExit):
            main(["rates", "--help"])
        assert ("channel width in nm (default 0.1, or the pitch when tighter)"
                in " ".join(capsys.readouterr().out.split()))


class TestRoute:
    def test_pair_table(self, capsys):
        code, out, _ = run(capsys, "route", "--topology", "simple6",
                           "--source", "A", "--wss-db", "8")
        assert code == 0
        assert out.count("\n") >= 15

    def test_single_pair_detail(self, capsys):
        code, out, _ = run(capsys, "route", "--topology", "simple6",
                           "--source", "A", "--pair", "B", "C")
        assert code == 0
        assert "->" in out

    def test_infeasible_pair_fails(self, capsys, tmp_path):
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
        code, out, _ = run(capsys, "route", "--topology", str(path),
                           "--source", "s", "--pair", "a", "b")
        assert code == 1

    def test_infeasible_pair_in_table_fails(self, capsys, tmp_path):
        code, out, err = run(capsys, "route", "--topology", chain3(tmp_path),
                             "--source", "a")
        assert code == 1
        assert out.splitlines()[-1].split() == ["b-c", "infeasible"]
        assert err == ""

    @pytest.mark.parametrize("flag, value, cause", [
        ("--wss-db", "1e308", "link A-B: hop loss 2 x wss_loss_db 1e+308 + "
                              "fiber_loss_db_per_km 0.4 x 3.4 km is not finite"),
        ("--fiber-db-per-km", "1e308", "link A-B: hop loss 2 x wss_loss_db 8 + "
                                       "fiber_loss_db_per_km 1e+308 x 3.4 km is not finite"),
        ("--fiber-db-per-km", "1e306", "underflows transmittance to 0"),
    ])
    def test_overflowing_or_underflowing_loss_is_one_line_error(
            self, capsys, flag, value, cause):
        code, out, err = run(capsys, "route", "--topology", "simple6",
                             "--source", "A", flag, value)
        assert_one_line_error(code, err)
        assert cause in err
        assert out == ""

    def test_unknown_topology_reports_error(self, capsys):
        code, _, err = run(capsys, "route", "--topology", "missing9",
                           "--source", "A")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("distance", [
        "Infinity", "NaN", '"5"', pytest.param("9" * 401, id="401-digits"),
    ])
    def test_bad_distance_is_one_line_error(self, tmp_path, distance):
        # JSON's Infinity/NaN parse to floats; the loader must refuse them
        # (and strings, and ints beyond the float range) before routing,
        # with no traceback.
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "bad", "nodes": [{"id": "s"}, {"id": "a"}], '
            f'"links": [{{"a": "s", "b": "a", "distance_km": {distance}}}]}}'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "eprnet.cli", "route", "--topology",
             str(path), "--source", "s"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "distance_km" in lines[0]

    def test_non_list_nodes_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "nodes": 5, "links": []}')
        code, out, err = run(capsys, "route", "--topology", str(path),
                             "--source", "s")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "nodes" in lines[0]

    def test_unknown_source_reports_error(self, capsys):
        code, _, err = run(capsys, "route", "--topology", "simple6",
                           "--source", "ZZ")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_pair_node_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "route", "--topology", "simple6",
                             "--source", "A", "--pair", "A", "ZZ")
        assert code == 1
        assert out == ""
        assert err == "error: unknown node 'ZZ'\n"

    def test_repeated_pair_node_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "route", "--topology", "simple6",
                             "--source", "A", "--pair", "B", "B")
        assert code == 1
        assert out == ""
        assert err == "error: a pair needs two distinct nodes\n"

    def test_link_without_a_length_is_one_line_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "route", "--topology", no_length(tmp_path),
                             "--source", "c")
        assert (code, out, err) == (1, "", NO_LENGTH_ERROR)


class TestAllocate:
    def test_unroutable_placement_fails(self, capsys, tmp_path):
        code, out, err = run(capsys, "allocate", "--topology", chain3(tmp_path),
                             "--source", "a", "--strategy", "lpt")
        assert code == 1
        assert out == ""
        assert err == "placement a cannot route: b-c\n"

    def test_lpt_smoke(self, capsys):
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "lpt",
                           "--channels", "32")
        assert code == 0
        assert "minimum rate:" in out
        assert "jain index:" in out

    def test_huge_peak_rate_gives_finite_jain_index(self, capsys):
        # Squares of these rates overflow a float.
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "lpt",
                           "--peak-rate", "1e200")
        assert code == 0
        line, = (ln for ln in out.splitlines() if ln.startswith("jain index:"))
        value = float(line.split(":")[1])
        assert math.isfinite(value) and 1.0 / 15 <= value <= 1.0

    def test_random_needs_seed(self, capsys):
        code, _, err = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "random",
                           "--channels", "16")
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "seed" in lines[0]

    @pytest.mark.parametrize("strategy", ["first-fit", "random", "lpt"])
    def test_negative_seed_is_one_line_error(self, capsys, strategy):
        code, out, err = run(capsys, "allocate", "--topology", "simple6",
                             "--source", "A", "--strategy", strategy,
                             "--seed", "-1")
        assert_one_line_error(code, err)
        assert "seed" in err and "-1" in err
        assert out == ""

    def test_random_with_seed(self, capsys):
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "random",
                           "--seed", "3", "--channels", "16")
        assert code == 0

    def test_exact_deep_search_stops_at_budget(self, capsys):
        # 1,500 channels make the search 1,500 levels deep; the solver
        # must stop at the node budget with its incumbent, not overflow.
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "exact",
                           "--channels", "1500", "--node-budget", "5000")
        assert code == 0
        assert "minimum rate:" in out
        assert out.splitlines()[-1] == "status: budget"

    def test_exact_fewer_channels_than_pairs_reports_ok(self, capsys):
        # 10 channels for 15 pairs: the seed is optimal at the root.
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "exact",
                           "--channels", "10")
        assert code == 0
        assert out.splitlines()[-1] == "status: ok"

    def test_exact_all_zero_spectrum_reports_ok(self, capsys):
        # Every assignment ties at rate 0: the seed is proven optimal at the
        # root, not searched until the budget runs out.
        code, out, _ = run(capsys, "allocate", "--topology", "simple6",
                           "--source", "A", "--strategy", "exact",
                           "--channels", "32", "--peak-rate", "0",
                           "--node-budget", "200000")
        assert code == 0
        assert "minimum rate: 0" in out
        assert out.splitlines()[-1] == "status: ok"

    def test_exact_zero_node_budget_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "allocate", "--topology", "simple6",
                             "--source", "A", "--strategy", "exact",
                             "--channels", "16", "--node-budget", "0")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "node_budget" in lines[0]

    def test_exact_proven_optimum_reports_ok(self, capsys):
        code, out, _ = run(capsys, "allocate", "--topology", str(RING4),
                           "--source", "a", "--strategy", "exact",
                           "--channels", "10")
        assert code == 0
        assert out.splitlines()[-1] == "status: ok"

    @pytest.mark.parametrize("flag", ALLOCATE_NON_FINITE_FLAGS)
    def test_non_finite_flag_is_one_line_error(self, capsys, flag):
        code, out, err = run(capsys, "allocate", "--topology", "simple6",
                             "--source", "A", "--strategy", "lpt", *flag)
        assert_one_line_error(code, err)
        assert out == ""

    def test_pitch_tighter_than_the_default_width_runs(self, capsys):
        # The width narrows to the pitch; the rates follow the pitch alone.
        argv = ["allocate", "--topology", "simple6", "--source", "A",
                "--strategy", "lpt", "--channels", "32"]
        _, default, _ = run(capsys, *argv)
        code, tight, err = run(capsys, *argv, "--pitch-nm", "0.05")
        assert code == 0 and err == ""
        assert tight != default
        assert tight.splitlines()[-1] == "status: ok"

    def test_unknown_strategy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["allocate", "--topology", "simple6", "--source", "A",
                  "--strategy", "greedy"])


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if a sweep starts: output paths are checked first."""
    def refuse(config):
        raise AssertionError("swept before checking the output paths")

    monkeypatch.setattr("eprnet.cli.run_placement_sweep", refuse)


class TestSweep:
    def test_seed_required_without_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--topology", "simple6",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--seed" in err

    def test_topology_or_config_required(self, capsys):
        code, _, err = run(capsys, "sweep", "--seed", "1")
        assert code == 1
        assert "error:" in err

    def test_link_without_a_length_is_one_line_error(self, capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--topology", no_length(tmp_path),
                             "--seed", "1", "--out", str(out_csv))
        assert (code, out, err) == (1, "", NO_LENGTH_ERROR)
        assert not out_csv.exists()

    def test_topology_name_with_a_line_break_is_one_line_error(self, capsys,
                                                                tmp_path):
        # The name would split the CSV's comment line.
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({
            "name": "lab\nx,y", "nodes": [{"id": i} for i in "abc"],
            "links": [{"a": a, "b": b, "distance_km": 1.0}
                      for a, b in ("ab", "bc", "ca")]}))
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--topology", str(path),
                             "--seed", "1", "--runs", "2", "--strategies", "lpt",
                             "--out", str(out_csv))
        assert (code, out, err) == (
            1, "", "error: topology name must be one line, got 'lab\\nx,y'\n")
        assert not out_csv.exists()

    def test_flag_driven_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code, out, _ = run(
            capsys, "sweep", "--topology", "simple6", "--seed", "9",
            "--runs", "2", "--wss-db", "8", "--strategies",
            "lpt,round-robin", "--sources", "A,B", "--channels", "16",
            "--out", str(out_csv), "--plot", str(plot),
        )
        assert code == 0
        assert f"wrote 4 rows to {out_csv}" in out
        assert out_csv.read_text().startswith("# eprnet sweep:")
        assert plot.read_text().startswith("<svg")

    def test_fewer_channels_than_pairs_runs_every_strategy(self, capsys,
                                                            tmp_path):
        # 10 channels for 15 pairs: some pair always gets no channel, but no
        # strategy refuses the instance.
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--topology", "simple6", "--seed",
                         "1", "--channels", "10", "--runs", "2",
                         "--out", str(out_csv))
        assert code == 0
        rows = read_csv_rows(out_csv)
        assert len(rows) == 2 * 6 * 7
        assert all(r["status"] == "ok" and float(r["mean_min_rate"]) == 0.0
                   for r in rows)

    @pytest.mark.parametrize("peak, two_node", [(1e300, False), (1e-160, False),
                                                 (1e306, True)])
    def test_statistics_scale_with_any_finite_peak_rate(self, capsys, tmp_path,
                                                        peak, two_node):
        # Min rates near either end of the float range: unscaled, their sum
        # or squares would overflow, or the squares would go subnormal.
        if two_node:  # one lossless pair: each run's min rate is the whole spectrum
            doc = {"name": "two", "nodes": [{"id": "a"}, {"id": "b"}],
                   "links": [{"a": "a", "b": "b", "distance_km": 1.0}]}
            (tmp_path / "two.json").write_text(json.dumps(doc))
            flags = ("--topology", str(tmp_path / "two.json"), "--wss-db", "0",
                     "--fiber-db-per-km", "0", "--runs", "1000",
                     "--strategies", "first-fit")
        else:
            flags = ("--topology", "simple6", "--sources", "A", "--wss-db", "4",
                     "--runs", "3", "--strategies", "random,first-fit")
        rows = {}
        for p in (1.0, peak):
            out_csv = tmp_path / f"{p}.csv"
            code, _, err = run(capsys, "sweep", "--seed", "1", "--peak-rate",
                               repr(p), *flags, "--out", str(out_csv))
            assert code == 0, err
            rows[p] = read_csv_rows(out_csv)
        assert rows[peak]
        for base, scaled in zip(rows[1.0], rows[peak], strict=True):
            for col in ("mean_min_rate", "std_min_rate"):
                assert scaled[col] == format(float(base[col]) * peak, ".9g")
            for col in ("mean_min_rate_normalized", "mean_jain", "std_jain"):
                assert scaled[col] == base[col]

    def test_config_driven_sweep(self, capsys, tmp_path):
        config = {
            "topology_path": "simple6",
            "seed": 21,
            "wss_losses": [8.0],
            "strategies": ["lpt"],
            "runs": 1,
            "sources": ["A"],
            "channels": 16,
            "output_path": str(tmp_path / "from_config.csv"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_config_seed_override(self, capsys, tmp_path):
        config = {
            "topology_path": "simple6", "seed": 21, "wss_losses": [8.0],
            "strategies": ["lpt"], "runs": 1, "sources": ["A"],
            "channels": 16,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_csv = tmp_path / "o.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(path),
                         "--seed", "5", "--out", str(out_csv))
        assert code == 0
        assert "seed=5" in out_csv.read_text().splitlines()[0]

    def test_flags_override_config_keys(self, capsys, tmp_path):
        config = {
            "topology_path": "simple6", "seed": 21, "wss_losses": [8.0],
            "strategies": ["lpt"], "runs": 1, "sources": ["A"],
            "channels": 16, "output_path": str(tmp_path / "unused.csv"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_csv = tmp_path / "o.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(path),
                         "--runs", "7", "--strategies", "first-fit",
                         "--wss-db", "2", "--out", str(out_csv))
        assert code == 0
        rows = read_csv_rows(out_csv)
        assert [(r["strategy"], r["wss_loss_db"], r["runs"], r["seed"])
                for r in rows] == [("first-fit", "2", "7", "21")]
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("flag", [("--peak-rate", "0"),
                                      ("--fwhm-nm", "1e-6")])
    def test_zero_reference_is_one_line_error(self, capsys, tmp_path, flag):
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", "--runs", "1", *flag,
                             "--out", str(tmp_path / "x.csv"))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "reference" in lines[0]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [("--peak-rate", "0"),
                                       ("--fwhm-nm", "1e-3", "--channels", "10")])
    def test_zero_total_spectrum_refused_before_routing(self, capsys, tmp_path,
                                                        monkeypatch, flags):
        def refuse(*args):
            raise AssertionError("routed a sweep with no generation rate")

        monkeypatch.setattr("eprnet.harness.build_routing_graph", refuse)
        code, out, err = run(capsys, "sweep", "--topology", "ilec17",
                             "--seed", "1", "--runs", "1", *flags,
                             "--out", str(tmp_path / "x.csv"))
        assert_one_line_error(code, err)
        assert "the spectrum's" in err and "rates total 0" in err
        assert out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_underflowing_loss_is_one_line_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", "--runs", "1",
                             "--fiber-db-per-km", "1e300",
                             "--out", str(tmp_path / "x.csv"))
        assert_one_line_error(code, err)
        assert "underflows transmittance to 0" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        (("--channels", "0"), "channels must be >= 1, got 0"),
        (("--wss-db", "-1"), "wss_losses must be finite and >= 0, got -1.0"),
    ])
    def test_refusal_names_the_config_key(self, capsys, tmp_path, flag, message):
        # Not the model classes' channel_count and wss_loss_db.
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", *flag, "--out", str(tmp_path / "x.csv"))
        assert err == f"error: {message}\n"
        assert code == 1 and out == ""

    def test_config_array_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"topology_path": "simple6", "seed": 1}]))
        code, out, err = run(capsys, "sweep", "--config", str(path),
                             "--out", str(tmp_path / "x.csv"))
        assert err == "error: config must be a JSON object\n"
        assert code == 1 and out == ""

    def test_unknown_source_is_one_line_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--topology", chain3(tmp_path),
                             "--seed", "1", "--sources", "z",
                             "--out", str(tmp_path / "x.csv"))
        assert err == "error: unknown source node 'z'\n"
        assert code == 1 and out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_bad_config_type_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "simple6", "seed": 1,
                                    "channels": 20.5}))
        code, _, err = run(capsys, "sweep", "--config", str(path),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "channels" in lines[0]

    def test_repeated_list_entries_are_one_line_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--topology", "simple6",
                           "--seed", "1", "--runs", "2", "--sources", "A,A",
                           "--strategies", "lpt,lpt", "--wss-db", "8",
                           "--wss-db", "8", "--out", str(tmp_path / "x.csv"))
        assert_one_line_error(code, err)
        assert "more than once" in err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_sources_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "simple6", "seed": 1,
                                    "runs": 2, "sources": []}))
        code, out, err = run(capsys, "sweep", "--config", str(path),
                             "--out", str(tmp_path / "x.csv"),
                             "--plot", str(tmp_path / "x.svg"))
        assert_one_line_error(code, err)
        assert "sources must not be empty" in err
        assert out == ""
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    @pytest.mark.parametrize("bad", ["nodir/x", "adir"])
    def test_unwritable_output_refused_before_sweeping(self, capsys, tmp_path,
                                                       no_sweep, flag, bad):
        (tmp_path / "adir").mkdir()
        paths = {"--out": str(tmp_path / "x.csv"), "--plot": str(tmp_path / "x.svg")}
        paths[flag] = str(tmp_path / bad)
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", "--runs", "2",
                             *(arg for item in paths.items() for arg in item))
        assert_one_line_error(code, err)
        assert paths[flag] in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]

    @pytest.mark.parametrize("plot", ["same.txt", "./same.txt", "link.txt"])
    def test_csv_and_plot_on_one_file_refused(self, capsys, tmp_path, no_sweep,
                                              monkeypatch, plot):
        # The plot would overwrite the CSV, however the path is spelt.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.txt").symlink_to(tmp_path / "same.txt")
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", "--runs", "2",
                             "--out", "same.txt", "--plot", plot)
        assert_one_line_error(code, err)
        assert plot in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt"]

    def test_output_path_from_config_checked_too(self, capsys, tmp_path,
                                                 no_sweep):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"topology_path": "simple6", "seed": 1,
                                    "output_path": str(tmp_path / "no" / "y.csv")}))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert_one_line_error(code, err)
        assert "no directory" in err

    def test_pitch_tighter_than_the_default_width_runs(self, capsys, tmp_path):
        # The channel width narrows to the pitch, which alone shapes the rates.
        outs = {}
        for pitch in ("0.2", "0.05"):
            outs[pitch] = tmp_path / f"{pitch}.csv"
            code, _, err = run(capsys, "sweep", "--topology", "simple6",
                               "--seed", "1", "--runs", "2", "--channels", "40",
                               "--strategies", "lpt", "--sources", "A",
                               "--pitch-nm", pitch, "--out", str(outs[pitch]))
            assert code == 0 and err == ""
        tight, default = (read_csv_rows(outs[p]) for p in ("0.05", "0.2"))
        assert [r["status"] for r in tight] == ["ok", "ok"]
        assert ([r["mean_min_rate"] for r in tight]
                != [r["mean_min_rate"] for r in default])

    @pytest.mark.parametrize("names", [",", "lpt,", ",warp"])
    def test_unknown_strategies_named_before_repeats(self, capsys, tmp_path,
                                                     names):
        # An empty name is unknown, and quoted, even when it repeats.
        code, out, err = run(capsys, "sweep", "--topology", "simple6",
                             "--seed", "1", "--strategies", names,
                             "--out", str(tmp_path / "x.csv"))
        assert_one_line_error(code, err)
        assert err.startswith("error: unknown strategies: ''")
        assert "more than once" not in err and out == ""

    def test_bad_strategy_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--topology", "simple6",
                           "--seed", "1", "--strategies", "warp",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "warp" in err


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--width-nm", "--center-nm"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--topology", "simple6", "--seed", "1"],
        ["allocate", "--topology", "simple6", "--source", "A", "--strategy", "lpt"],
    ])
    def test_only_rates_takes_label_flags(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, flag, "0.1"])
        assert exc.value.code == 2

    def test_defaults_match_the_model_classes(self):
        # The config fields and the route flags default to the values of
        # the classes they build, so each default has one home.
        config = ExperimentConfig(topology_path="simple6", seed=1)
        assert config.grid() == ChannelGrid()
        assert config.profile() == SpectrumProfile()
        args = build_parser().parse_args(["route", "--topology", "simple6",
                                          "--source", "A"])
        assert LossParams(config.fiber_loss_db_per_km, args.wss_db) == LossParams()
        assert args.fiber_loss_db_per_km == config.fiber_loss_db_per_km
