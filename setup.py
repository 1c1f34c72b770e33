"""Legacy setup shim: the sandbox has no network, so PEP 517 build isolation
(and PEP 660 editable wheels, which need the `wheel` package) are unavailable.
`pip install -e . --no-build-isolation` falls back to `setup.py develop` here.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'NNQS-Transformer: an Efficient and Scalable Neural "
        "Network Quantum States Approach for Ab initio Quantum Chemistry' (SC'23)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
)
