"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` patches copreg's functions and methods by name; one that
a refactor drops would break ``bench/run.py --trace 1`` and ``--smoke``.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_src():
    tracing = load_tracing()
    layers = [("copreg.nnet.layers", f"{cls}.{method}")
              for cls in tracing.NNET_LAYERS
              for method in ("forward", "backward")]
    targets = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    for module_name, attr in targets + layers:
        module = importlib.import_module(module_name)
        assert os.path.realpath(module.__file__).startswith(
            os.path.realpath(SRC) + os.sep), module.__file__
        owner = module
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
