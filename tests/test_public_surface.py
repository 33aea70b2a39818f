"""Every package's ``__all__`` is a list of names that exist, each once.

A name deleted from a module but left in a package's ``__all__`` — or in
``repro.obs``'s lazy PEP 562 table — fails only when someone touches it
(``from repro.obs import *``, a doc build, a user's import).  This walks every
``repro.*`` package so a removal that forgets an export fails here instead.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_and_are_unique(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names that do not resolve: {missing}"
