"""Cold-start footprint: importing the package loads numpy but no scipy,
and fixes glibc's malloc thresholds for the pair engine.

scipy is imported on first use only, by the exact means (quad) and the
closed-form tail constant (gamma).  Each check runs in a fresh interpreter
so that modules already loaded by the pytest process cannot hide an import
or an allocator state.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str):
    """Run code in a fresh interpreter; return its last line of output, parsed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def _scipy_modules_after(code: str) -> list:
    return _fresh(f"import sys, json\n{code}\n"
                  "print(json.dumps(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.'))))")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def test_import_loads_no_scipy() -> None:
    assert _scipy_modules_after("import siltlab, siltlab.cli") == []


def test_exact_mean_imports_scipy_on_first_call() -> None:
    loaded = _scipy_modules_after(
        "import siltlab\nsiltlab.mean_alpha_prime_eps(1.0, 0.5, 0.01, 0.4)")
    assert "scipy.integrate" in loaded


@pytest.mark.skipif(not _glibc(), reason="malloc thresholds are glibc's")
def test_pair_engine_reuses_freed_pages() -> None:
    # at the thresholds a bare interpreter has, the second call faulted
    # about 1,300 pages back in (one tile's freed temporaries trim the heap)
    faults = _fresh(
        "import json, resource\n"
        "from siltlab import Mollifier, alpha_eps, generate_path\n"
        "path, m = generate_path(0.5, 1.0, 1024, 1), Mollifier(0.01)\n"
        "alpha_eps(path, 0.0, m)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "alpha_eps(path, 0.0, m)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    assert faults < 100
