"""The package's public names: each module declares its own in __all__, once,
and cknsharp re-exports every one of them.  The array modules load on first
use of one of their names, so the surface is read through dir(), not vars()."""

import types

import cknsharp
from cknsharp import closed_forms, cylinder, errors, params, schrodinger, sphere

MODULES = (errors, params, closed_forms, schrodinger, sphere, cylinder)


def test_the_package_exports_exactly_the_union_of_the_modules_all():
    declared = [name for m in MODULES for name in m.__all__]
    assert len(declared) == len(set(declared))  # no name is declared twice
    public = {name for name in dir(cknsharp) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(cknsharp, name), types.ModuleType)}
    assert public - submodules == set(declared)
    assert {m.__name__.rpartition(".")[2] for m in MODULES} <= submodules
    assert cknsharp.__version__


def test_star_import_exports_exactly_the_union_of_the_modules_all():
    namespace = {}
    exec("from cknsharp import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {name for m in MODULES for name in m.__all__}


def test_every_declared_name_resolves_to_its_module_binding():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(cknsharp, name) is getattr(m, name), f"{m.__name__}.{name}"
