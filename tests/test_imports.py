"""Import hygiene: serving loads no training code, and the lazy package
re-exports still resolve every public name.

Each check runs in a fresh interpreter, since this test process has long
imported everything.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

TRAINING_MODULES = ("repro.core.trainer", "repro.core.driver",
                    "repro.core.checkpoint", "repro.core.stacked",
                    "repro.evaluation", "repro.hw.deployment")


def _fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_serving_import_loads_no_training_module():
    loaded = _fresh(
        "import sys\n"
        "import repro.cli, repro.serving\n"
        "from repro.models import temponet_fixed\n"
        "loaded = [m for m in sys.modules if m.startswith(\n"
        f"    {TRAINING_MODULES!r})]\n"
        "# Building an executor (export check, probe, walk) loads none\n"
        "# either.\n"
        "repro.serving.StreamingExecutor(temponet_fixed(width_mult=0.125))\n"
        "loaded += [m for m in sys.modules if m.startswith(\n"
        f"    {TRAINING_MODULES!r})]\n"
        "print(*sorted(set(loaded)))\n")
    assert loaded.split() == []


def test_every_public_name_resolves():
    out = _fresh(
        "import importlib\n"
        "for name in ('repro', 'repro.core', 'repro.hw'):\n"
        "    package = importlib.import_module(name)\n"
        "    star = {}\n"
        "    exec(f'from {name} import *', star)\n"
        "    missing = [n for n in package.__all__ if n not in star]\n"
        "    assert not missing, (name, missing)\n"
        "    for n in package.__all__:\n"
        "        assert getattr(package, n) is star[n], (name, n)\n"
        "    print(name, len(package.__all__))\n")
    counts = dict(line.split() for line in out.splitlines())
    assert set(counts) == {"repro", "repro.core", "repro.hw"}
    assert all(int(count) > 0 for count in counts.values())


def test_unknown_attribute_still_raises():
    out = _fresh(
        "import repro.core\n"
        "try:\n"
        "    repro.core.NoSuchName\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert "NoSuchName" in out
