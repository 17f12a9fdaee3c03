import importlib
import pkgutil

import pytest

import rankagg

_MODULES = [f"rankagg.{info.name}" for info in pkgutil.iter_modules(rankagg.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_name_resolves(name):
    # perfbench's tracer wraps each __all__ name with getattr, so a stale
    # entry would break every traced benchmark run
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
