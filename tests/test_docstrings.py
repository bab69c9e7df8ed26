"""The module docstrings that state what a decision trusts name only code
that exists."""

import functools
import importlib
import pkgutil
import re

import pytest

import mobikit

MODULES = {m.name: importlib.import_module(f"mobikit.{m.name}")
           for m in pkgutil.iter_modules(mobikit.__path__)}
# the modules and the classes defined in them, whose attributes a name may be
SCOPES = [*MODULES.values(), *(c for m in MODULES.values() for c in vars(m).values()
                               if isinstance(c, type) and c.__module__ == m.__name__)]
# a backticked identifier, dotted or not, such as `positive` or `solver.solved`
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def resolves(name: str) -> bool:
    """Whether name's first part is a mobikit module or an attribute of a
    scope, and each further part an attribute of what the part before it
    names."""
    first, *rest = name.split(".")
    roots = [MODULES[first]] if first in MODULES else []
    roots += [getattr(scope, first) for scope in SCOPES if hasattr(scope, first)]
    for root in roots:
        try:
            functools.reduce(getattr, rest, root)
            return True
        except AttributeError:
            continue
    return False


def test_a_name_resolves_only_to_code_that_exists():
    assert {"symbolic", "solver", "report", "carriers"} <= MODULES.keys()
    assert resolves("Carrier.admits") and resolves("solver.solved") and resolves("positive")
    assert not resolves("symbolic.substituted") and not resolves("Carrier.opaque")


@pytest.mark.parametrize("module", ["symbolic", "solver", "report"])
def test_a_module_docstring_names_only_code_that_exists(module):
    names = set(NAME.findall(MODULES[module].__doc__))
    assert names and [n for n in sorted(names) if not resolves(n)] == []
