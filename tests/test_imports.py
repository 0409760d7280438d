"""Every ``repro`` subpackage imports cleanly as the first one imported.

Import cycles only show in a fresh interpreter and depend on which
package comes first (``import repro.ecc`` once failed through
``ecc.array → repro.array → prodtest → faults.campaign → ecc.array``
while ``import repro.faults`` worked), so each subpackage gets its own
subprocess.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
SUBPACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_catalog_covers_the_layers():
    for name in ("repro.array", "repro.ecc", "repro.faults", "repro.prodtest"):
        assert name in SUBPACKAGES


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=SRC,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
