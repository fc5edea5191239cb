"""The ``probe`` fixture: one call log per test for the kernels the call-count tests bound.

``probe`` rebinds a module function by identity through ``rebind`` of ``bench/tracer.py``, as
the benchmark's tracer does, so it sees a call made through any package module's binding.
"""

import builtins
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import rebind, restore  # noqa: E402


@pytest.fixture
def probe(monkeypatch):
    """``probe(owner, *names)`` wraps each named function of the module or method of the class
    ``owner``, or a builtin the module reads by name (``probe(scroll, "divmod")``), and returns
    the test's log.  Each call appends ``(name, args, result)`` as it returns, ``name`` prefixed
    ``"Class."`` for a method and each list in ``args`` copied as it was at the call; keyword
    arguments pass through unlogged.  A method or a builtin has one binding, which ``monkeypatch``
    patches; every wrapper is undone at teardown."""
    log, undo = [], []

    def wrap(owner, *names):
        prefix = f"{owner.__name__}." if isinstance(owner, type) else ""
        for name in names:
            bound = hasattr(owner, name)
            inner = getattr(owner if bound else builtins, name)

            def spy(*args, _name=prefix + name, _inner=inner, **kwargs):
                called = tuple(list(a) if type(a) is list else a for a in args)  # a caller may grow a list later
                result = _inner(*args, **kwargs)
                log.append((_name, called, result))
                return result

            if bound and not prefix:  # a module function: every package module attribute that holds it
                rebind({id(inner): (inner, spy)}, undo)
            else:
                monkeypatch.setattr(owner, name, spy, raising=False)
        return log

    yield wrap
    restore(undo)
