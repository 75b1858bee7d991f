"""Setuptools configuration for the ``repro`` package.

The environment has no network access and no ``wheel`` package, so PEP
517 editable installs (which build a wheel) fail.  Keeping a classic
``setup.py`` lets ``pip install -e . --no-build-isolation`` fall back to
the legacy ``setup.py develop`` path.  The package metadata lives here;
the sources are under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
