"""Build and load the optional compiled core outside the source tree.

``_fastcore.c`` is compiled once per source digest into
``.bench_build/figbench/fastcore-<digest>/`` with the same setuptools
``build_ext`` step that ``REPRO_COMPILE=1 pip install`` runs, so the
flags match an installed user's.  A process that wants the compiled
core calls :func:`install_finder` before importing ``repro``; the
finder serves ``repro.sim._fastcore`` from the build directory while
the rest of the package still comes from ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

SOURCE = Path("src/repro/sim/_fastcore.c")
BUILD_ROOT = Path(".bench_build/figbench")
MODULE = "repro.sim._fastcore"


def extension_path() -> Path:
    """Where the extension for the current ``_fastcore.c`` lives."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return (BUILD_ROOT / f"fastcore-{digest}" / "repro" / "sim"
            / f"_fastcore{suffix}")


def ensure_built() -> Path:
    """Compile the extension unless this source digest is built already.

    The compiler runs in a child process whose output goes to stderr,
    so the benchmark's stdout stays machine-readable.  Raises
    ``RuntimeError`` when the build fails.
    """
    target = extension_path()
    if target.exists():
        return target
    out_dir = target.parents[2]
    code = (
        "import sys\n"
        "from setuptools import Distribution, Extension\n"
        "dist = Distribution({'name': 'figbench-fastcore', 'ext_modules':"
        " [Extension(sys.argv[1], [sys.argv[2]])]})\n"
        "cmd = dist.get_command_obj('build_ext')\n"
        "cmd.build_lib = sys.argv[3]\n"
        "cmd.build_temp = sys.argv[3] + '/tmp'\n"
        "cmd.ensure_finalized()\n"
        "cmd.run()\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, MODULE, str(SOURCE), str(out_dir)],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0 or not target.exists():
        raise RuntimeError(f"building {SOURCE} failed "
                           f"(exit {proc.returncode})")
    return target


class _FastcoreFinder:
    """Meta-path finder that serves the prebuilt extension module."""

    def __init__(self, path: Path) -> None:
        self.path = str(path)

    def find_spec(self, name, path=None, target=None):
        if name != MODULE:
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, self.path)
        return importlib.util.spec_from_file_location(name, self.path,
                                                      loader=loader)


def install_finder(path: Path) -> None:
    """Make ``import repro.sim._fastcore`` load *path*."""
    if not os.path.exists(path):
        raise RuntimeError(f"compiled core {path} is missing")
    sys.meta_path.insert(0, _FastcoreFinder(Path(path)))
