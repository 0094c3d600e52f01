import os
import subprocess
import sys
from pathlib import Path

import phaseshift


def test_every_exported_name_resolves():
    assert [n for n in phaseshift.__all__ if not hasattr(phaseshift, n)] == []
    namespace = {}
    exec("from phaseshift import *", namespace)
    assert set(phaseshift.__all__) <= set(namespace)


def test_import_loads_no_scipy():
    # importing scipy.linalg alone takes longer than a whole CLI set-up
    package_root = str(Path(phaseshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys, phaseshift; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "[]"
