"""The configs the benchmark writes stay valid for the command line.

``bench/workloads.py`` writes each workload's inputs and configs; an option
check that starts rejecting one of them would otherwise show only as a failed
benchmark run.  Every workload runs once here at the benchmark's smoke scale.
"""

import importlib.util
import os
import sys

import pytest

from copreg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_every_benchmark_command_exits_zero(tmp_path, name):
    wl = WORKLOADS.prepare(name, 1, str(tmp_path / name), scale="smoke")
    assert wl.commands
    for task, argv in wl.commands:
        assert main(argv) == 0, (name, task)
