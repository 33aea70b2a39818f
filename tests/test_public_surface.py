"""Every package's ``__all__`` is a list of names that exist, each once.

A name deleted from a module but left in a package's ``__all__`` — or in a
package's lazy PEP 562 table (``repro``, ``repro.obs``, ``repro.scenarios``) —
fails only when someone touches it (``from repro.obs import *``, a doc build,
a user's import).  This walks every ``repro.*`` package so a removal that
forgets an export fails here instead, and so does a lazy name that ``dir()``
does not list.
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


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_are_listed_by_dir_and_star_imported(package):
    module = importlib.import_module(package)
    unlisted = sorted(set(module.__all__) - set(dir(module)))
    assert not unlisted, f"dir({package}) omits: {unlisted}"
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


#: Names deleted from the surface, by the module that held them.  Input
#: validation is a data transfer of a ``Digest`` and the coin outputs the seed
#: itself, so the block, the distributions and the commitment's unused
#: opening went; nothing may bring one back under its old name.
GONE = {
    "repro.core": ["InputValidationBlock", "Distribution", "UniformDistribution", "SeedDistribution"],
    "repro.consensus.commitment": ["CommitmentError"],
}


@pytest.mark.parametrize("package, name", [(p, n) for p, names in GONE.items() for n in names])
def test_a_removed_name_resolves_nowhere(package, name):
    assert not hasattr(importlib.import_module(package), name)
    for other in PACKAGES:
        assert name not in importlib.import_module(other).__all__, other


@pytest.mark.parametrize("module", ["repro.core.input_validation", "repro.core.distributions"])
def test_a_removed_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_a_commitment_has_no_separate_opening():
    from repro.consensus.commitment import CommitmentScheme

    assert not hasattr(CommitmentScheme, "open")
