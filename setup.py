"""Setup script.

``pip install -e . --no-build-isolation`` works in offline environments
whose setuptools lacks the ``wheel`` package (legacy develop installs do
not need to build a wheel).  The package lives under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
