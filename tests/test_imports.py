"""The package's import graph, each check in a fresh interpreter.

`corrineq/__init__.py` imports nothing, so every module must import on
its own, and the parser's modules must not pull in numpy or the
protocol's import-time derivation.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import corrineq

SRC = str(Path(corrineq.__file__).resolve().parents[1])
MODULES = sorted(info.name for info in pkgutil.iter_modules(corrineq.__path__))


def run_python(code):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_every_module_is_listed():
    assert {"cli", "dsl", "lhv", "protocol"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = run_python(f"import corrineq.{module}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["dsl", "polynomials", "catalog"])
def test_parser_loads_without_numpy(module):
    proc = run_python(
        f"import sys, corrineq.{module}; "
        "print(sorted({'numpy', 'corrineq.protocol'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
