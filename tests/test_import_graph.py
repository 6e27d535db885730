"""Importing ncspectrum loads no standard-library module beyond those
the package names itself: no record-class machinery (dataclasses, and
with it inspect, ast, dis, tokenize, ...) runs at import.

The check runs in a fresh interpreter, since pytest itself has already
imported those modules.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# The standard-library modules the package imports by name.
NAMED = ("argparse", "bisect", "fractions", "functools", "itertools", "json",
         "math", "operator", "os", "random", "sys", "__future__")

CHECK = f"""
import sys
for name in {NAMED!r}:
    __import__(name)
before = set(sys.modules)
import ncspectrum
import ncspectrum.cli
extra = sorted(n for n in set(sys.modules) - before
               if n.split(".")[0] != "ncspectrum")
print(" ".join(extra))
"""


def test_import_loads_only_named_modules():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.split() == []
