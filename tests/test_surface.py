import importlib
import pkgutil

import pytest

import emtshape

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(emtshape.__path__)
                    if info.name != "__main__")


def test_package_exports_nothing_but_the_version():
    public = {name for name in vars(emtshape) if not name.startswith("_")}
    assert public <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"emtshape.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from emtshape.{name} import *", namespace)
    assert set(exported) <= set(namespace)
