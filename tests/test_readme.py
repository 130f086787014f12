"""The library example of README.md runs against the installed package."""

import pathlib
import re

import numpy as np

import lapbasis as lb

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # the example smooths a field it does not define
    noisy = np.random.default_rng(0).standard_normal(lb.icosphere(3).n_vertices)
    exec(compile(block, str(README), "exec"), {"noisy_field": noisy})
