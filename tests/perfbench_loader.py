"""Load a module of the benchmark in ``perfbench/`` by file path, for the tests.

``perfbench/`` is not a package, so its modules are loaded from their files,
each under the name ``perfbench_<name>``.  This module holds no tests.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
