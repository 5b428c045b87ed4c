"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so the
package installs in environments whose setuptools predates PEP 660 editable
wheels (``pip install -e . --no-build-isolation`` falls back to the legacy
``setup.py develop`` path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
