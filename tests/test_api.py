"""The public names of the package: every export in `d2k.__all__` exists,
none is listed twice, and a star import succeeds, so a name left behind by
a deletion fails here rather than in a user's import.  Importing the
package and its CLI loads no scipy module."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import d2k


def test_every_exported_name_resolves():
    missing = [name for name in d2k.__all__ if not hasattr(d2k, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(d2k.__all__)) == len(d2k.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from d2k import *", namespace)
    assert set(d2k.__all__) <= set(namespace)


def test_cli_import_loads_no_scipy():
    # scipy adds about 20 MiB to the peak RSS of `d2k extract` and
    # `d2k generate`, which never use it; the metrics import it per call
    code = ("import sys, d2k, d2k.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(d2k.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"
