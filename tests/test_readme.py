"""The library example and the CLI lines of README.md run against the
installed package."""

import pathlib
import re
import shlex

import numpy as np

import lapbasis as lb
from lapbasis.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # the example smooths a field it does not define
    noisy = np.random.default_rng(0).standard_normal(lb.icosphere(3).n_vertices)
    exec(compile(block, str(README), "exec"), {"noisy_field": noisy})


def test_cli_lines_run(tmp_path, monkeypatch):
    lines = re.findall(r"^lapbasis (.*)$", README.read_text(), re.M)
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    lb.save_off(lb.icosphere(2), "model.off")
    for line in lines:  # in order: metrics reads the fields of out/
        assert main(shlex.split(line)) == 0, line
