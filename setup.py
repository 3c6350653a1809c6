"""Minimal packaging for the ``repro`` library under ``src/``.

Nothing needs installing to run the code: the CLI, tests and benchmarks
run from the repository root with ``PYTHONPATH=src``.  This file exists so
``pip install -e .`` also works; the only runtime dependency is numpy
(the test suite additionally needs pytest and hypothesis).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    packages=find_packages("src"),
    package_dir={"": "src"},
    install_requires=["numpy"],
)
