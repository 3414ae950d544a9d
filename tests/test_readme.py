"""The README's examples stay in step with the code."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from eprnet.cli import build_parser
from eprnet.harness import ExperimentConfig, config_from_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def test_config_example_loads_with_every_key(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README, re.S)
    path = tmp_path / "experiment.json"
    path.write_text(block)
    config = config_from_json(path)
    doc = json.loads(block)
    assert set(doc) == {f.name for f in fields(ExperimentConfig)}
    # Apart from the required keys and the output path, the example shows
    # the defaults.
    for f in fields(ExperimentConfig):
        if f.name not in ("topology_path", "seed", "output_path"):
            assert getattr(config, f.name) == f.default, f.name


def test_every_command_parses():
    blocks = "".join(re.findall(r"```sh\n(.*?)```", README, re.S))
    commands = [line for line in blocks.splitlines() if line.startswith("eprnet ")]
    commands += re.findall(r"`(eprnet [^`]*)`", README)
    assert len(commands) >= 8  # the extraction found the examples
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
