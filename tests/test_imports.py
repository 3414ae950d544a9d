import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprnet

TEST_ONLY = ("scipy", "networkx", "hypothesis", "pytest")


def loaded_after(code: str, modules: tuple[str, ...], cwd: Path) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``code`` with eprnet imported from this checkout."""
    src = str(Path(eprnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (f"import sys; {code}; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_runtime_imports_need_only_numpy(tmp_path):
    # numpy is the only declared runtime dependency; the oracles' scipy
    # and networkx, and the test tools, must never be pulled in by the
    # library itself.
    code = "import eprnet, eprnet.cli, eprnet.harness"
    assert loaded_after(code, TEST_ONLY, tmp_path) == []


# Steps that never allocate, each run alone in a fresh interpreter.
NO_ALLOCATION = {
    "import": "import eprnet, eprnet.cli, eprnet.harness",
    "load": "import json, pathlib; "
            "from eprnet.harness import config_from_json; "
            "from eprnet.netgraph import load_topology; "
            "pathlib.Path('c.json').write_text("
            "json.dumps(dict(topology_path='ilec17', seed=1))); "
            "load_topology(config_from_json('c.json').topology_path)",
    "route": "from eprnet import cli; "
             "cli.main(['route', '--topology', 'simple6', '--source', 'A'])",
    "rates": "from eprnet import cli; cli.main(['rates', '--channels', '8'])",
    "refused sweep": "from eprnet import cli; "
                     "assert cli.main(['sweep', '--topology', 'simple6', "
                     "'--seed', '1', '--runs', '0']) == 1",
}


@pytest.mark.parametrize("step", NO_ALLOCATION)
def test_numpy_loads_only_when_allocating(tmp_path, step):
    # numpy's import is most of eprnet's start-up; commands that route,
    # tabulate rates or refuse their input never compute with it.
    assert loaded_after(NO_ALLOCATION[step], ("numpy",), tmp_path) == []


def test_numpy_loaded_by_an_allocation(tmp_path):
    code = ("from eprnet import cli; "
            "cli.main(['allocate', '--topology', 'simple6', '--source', 'A', "
            "'--strategy', 'random', '--seed', '3'])")
    assert loaded_after(code, ("numpy",), tmp_path) == ["numpy"]


def test_public_api_is_pinned():
    # Adding or removing a public name is a deliberate edit of this list.
    # ``__all__`` joins the modules' lists, so the submodules are not exported.
    assert sorted(eprnet.__all__) == [
        "ALL_STRATEGIES", "Allocation", "AllocationError", "AllocationInstance",
        "ChannelGrid", "ConfigError", "ExactResult", "ExperimentConfig",
        "ExperimentReport", "GraphEdge", "Link", "LossParams", "MetricsError",
        "Node", "PhysicalTopology", "RateVector", "RoutePlan", "RouteTable",
        "RoutingError", "RoutingGraph", "SPEED_OF_LIGHT_NM_THZ",
        "SpectrumProfile", "SweepRow", "TopologyError", "all_pair_routes",
        "allocate_once", "bezakova_matching",
        "build_routing_graph", "channel_bandwidth",
        "channel_center_frequency", "channel_center_wavelength",
        "config_from_json", "derive_seed", "emit_csv",
        "emit_plot", "exact_maxmin", "first_fit", "fractional_optimum",
        "gen_vertex", "generation_rates", "jain_index",
        "link_distance", "load_topology", "lp_round", "mem_vertex",
        "modified_lpt", "normalization_reference",
        "normalized_min_rate", "random_balanced", "read_csv_rows",
        "round_robin", "route_nodes",
        "run_placement_sweep", "splitmix64", "topology_from_dict",
        "transmittance",
    ]


def test_each_public_name_is_declared_once_in_its_own_module():
    # The package exports the union of its modules' __all__ lists; each
    # list names only what its module defines, and no name is in two.
    declared = []
    for name in ("allocation", "harness", "metrics", "netgraph", "routing",
                 "spectrum"):
        module = getattr(eprnet, name)
        defined = set()
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert set(module.__all__) <= defined, name
        declared += module.__all__
    assert len(declared) == len(set(declared))
    assert sorted(declared) == sorted(eprnet.__all__)


def test_numpy_and_its_generator_live_in_allocation_only():
    # Every seeded shuffle is allocation._shuffled's one PCG64 draw; the
    # other modules stay plain Python, so none can draw on its own.
    importers, generators = set(), []
    for path in sorted(Path(eprnet.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "Generator"):
                generators.append(path.name)
            if any(m.split(".")[0] in ("numpy", "random") for m in modules):
                importers.add(path.name)
    assert importers == {"allocation.py"}
    assert generators == ["allocation.py"]


def test_only_allocation_names_the_seeded_draw():
    # allocation._shuffled is the one seeded draw and _pair_order turns it
    # into a pair order there; a module naming _shuffled would draw its own.
    namers = set()
    for path in sorted(Path(eprnet.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                    else None)
            if name == "_shuffled":
                namers.add(path.name)
    assert namers == {"allocation.py"}
