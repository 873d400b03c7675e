"""Build script; the package is pure Python."""

from setuptools import setup

setup()
