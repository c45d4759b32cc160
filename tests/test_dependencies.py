"""The runtime package keeps zero dependencies outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import leechlab


def test_every_module_imports_only_the_standard_library():
    # -S keeps the .pth files of site-packages from loading anything first;
    # the site directories go back on sys.path, so a third-party module that
    # any leechlab module imports, even optionally, would load and show here
    code = (
        "import importlib, json, pkgutil, site, sys\n"
        "sys.path += site.getsitepackages()\n"
        "import leechlab\n"
        "for m in pkgutil.walk_packages(leechlab.__path__, 'leechlab.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(leechlab.__file__).parents[1])},
        capture_output=True, text=True, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert {"leechlab.cli", "leechlab.search", "leechlab.graph"} <= set(loaded)
    tops = {name.partition(".")[0] for name in loaded} - {"__main__"}  # the -c script
    assert tops - set(sys.stdlib_module_names) == {"leechlab"}
