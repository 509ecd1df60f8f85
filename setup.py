"""Packaging for the ``repro`` distribution.

Metadata lives here (no ``pyproject.toml``: the execution environment
is offline and has no ``wheel`` package, so PEP 517 builds that
download a backend or build a wheel are unavailable; the classic
``setup.py`` path works everywhere).

The compiled kernel backend (``repro.kernel._cext``) is built
*opportunistically*: the extension is declared ``optional``, and the
``build_ext`` subclass below downgrades any compiler failure — no C
toolchain, missing Python headers, broken flags — to a warning.  An
sdist or ``pip install`` on a machine without a compiler therefore
succeeds with the pure-Python package; the ``cext`` backend then
reports unavailable and scheduling falls back to the interpreted
state classes (see ``repro/kernel/cext_backend.py``).  Build it
explicitly with::

    python setup.py build_ext --inplace
"""

import re
from pathlib import Path

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


def _version() -> str:
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"', text, re.M).group(1)


class optional_build_ext(build_ext):
    """Build the C engine if we can; continue without it if we cannot."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler / toolchain at all
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile or link failure
            self._skip(exc)

    def _skip(self, exc) -> None:
        print(
            f"WARNING: building repro.kernel._cext failed ({exc}); "
            "installing the pure-Python package — the 'cext' kernel "
            "backend will fall back to the interpreted state classes."
        )


setup(
    name="repro-ipps-beaumont",
    version=_version(),
    description=(
        "Reproduction of the IPDPS one-port scheduling heuristics paper: "
        "flat-kernel schedulers, campaign runner, observability stack"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        # numpy and networkx are only the tests' oracles and the
        # on-demand interop: Platform.link_matrix, analysis.comm_matrix
        # and TaskGraph.to_networkx() import them when called
        "test": ["pytest", "hypothesis", "numpy", "networkx"],
    },
    ext_modules=[
        Extension(
            "repro.kernel._cext",
            sources=["src/repro/kernel/_cextmodule.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
