"""The library example and the CLI lines of README.md run against the
installed package."""

import argparse
import pathlib
import re
import shlex

import numpy as np

import lapbasis as lb
from lapbasis.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # the example smooths a field it does not define
    noisy = np.random.default_rng(0).standard_normal(lb.icosphere(3).n_vertices)
    exec(compile(block, str(README), "exec"), {"noisy_field": noisy})


def test_cli_section_names_only_parser_flags():
    # a flag removed from the parser must not linger in the docs
    (section,) = re.findall(r"^## CLI\n(.*?)^## ", README.read_text(),
                            re.M | re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {s for p in sub.choices.values() for a in p._actions
             for s in a.option_strings}
    assert len(named) >= 10
    assert named - flags == set()


def test_cli_lines_run(tmp_path, monkeypatch):
    lines = re.findall(r"^lapbasis (.*)$", README.read_text(), re.M)
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    lb.save_off(lb.icosphere(2), "model.off")
    for line in lines:  # in order: metrics reads the fields of out/
        assert main(shlex.split(line)) == 0, line
