"""Setuptools entry point — the packaging source of truth.

Metadata lives here (not in a ``[project]`` table) so the package installs
editable even in offline environments whose pip/setuptools combination
cannot build PEP 660 editable wheels (no ``wheel`` package available);
``pyproject.toml`` carries tool configuration only (ruff).

Extras:

* ``repro[test]`` — everything CI needs to run every suite: pytest (with
  the hard per-test timeouts the stress jobs use), hypothesis for the
  property-based wire fuzzers, and ruff for the lint gate.
* ``repro[bench]`` — the benchmark harness dependencies.
* ``repro[loadgen]`` — the trace-replay harness (``python -m
  repro.loadgen``).  Deliberately empty: the fleet simulator, online
  adversary, SLO reports and terminal dashboard are pure stdlib + the core
  numpy dependency, and declaring the extra keeps that promise checkable
  (a dependency creeping into the harness has to show up here).
"""

from setuptools import find_packages, setup

TEST_REQUIRES = [
    "pytest>=7",
    "pytest-timeout>=2",
    "hypothesis>=6",
    "ruff>=0.4",
]

BENCH_REQUIRES = [
    "pytest>=7",
    "pytest-benchmark>=4",
]

#: The loadgen harness adds no dependencies beyond the core install; the
#: empty extra documents (and pins) that fact.
LOADGEN_REQUIRES: list = []

setup(
    name="repro",
    version="0.8.0",
    description=(
        "Reproduction of CORGI (EDBT 2023): customizable, robust geo-"
        "indistinguishable location obfuscation, grown into a sharded, "
        "cross-host serving system"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.23",
        "scipy>=1.9",
    ],
    extras_require={
        "test": TEST_REQUIRES,
        "bench": BENCH_REQUIRES,
        "loadgen": LOADGEN_REQUIRES,
    },
)
