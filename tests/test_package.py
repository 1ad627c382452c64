"""The package namespace: every public name resolves, and importing the map
API leaves the harness modules unloaded."""

import os
import subprocess
import sys

import fcrbt

HARNESS = ("bench", "claims", "history", "linearizability", "oracle",
           "schedules", "stress", "workload")


def test_every_public_name_resolves():
    namespace = {}
    exec("from fcrbt import *", namespace)
    for name in fcrbt.__all__:
        assert namespace[name] is getattr(fcrbt, name)


def test_map_import_leaves_the_harness_unloaded():
    code = (
        "import sys, fcrbt\n"
        "from fcrbt import make_variant\n"
        "m = make_variant('V1', 8, 2); m.register_thread(); m.insert(1, 1)\n"
        "assert m.get(1) == 1\n"
        "m.shutdown()\n"
        f"print(sorted(n for n in {HARNESS!r} if 'fcrbt.' + n in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(fcrbt.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
