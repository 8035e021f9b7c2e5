"""Setuptools shim.

This offline environment lacks the ``wheel`` package, so PEP-517 editable
installs (``pip install -e .``) cannot build the editable wheel.  This shim
lets ``python setup.py develop`` (or ``pip install -e . --no-build-isolation``
with the legacy path) install the package from ``src/`` without network
access.  There is no ``pyproject.toml``: the minimal metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.fp": ["*.c"]},  # the JIT-built native RZ kernel
    install_requires=["numpy"],
)
