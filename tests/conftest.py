"""The ``probe`` fixture: one call log per test for the kernels the call-count tests bound."""

import builtins

import pytest


@pytest.fixture
def probe(monkeypatch):
    """``probe(owner, *names)`` wraps each named function of the module or method of the class
    ``owner``, or a builtin the module reads by name (``probe(scroll, "divmod")``), and returns
    the test's log.  Each call appends ``(name, args, result)`` as it returns, ``name`` prefixed
    ``"Class."`` for a method and each list in ``args`` copied as it was at the call; keyword
    arguments pass through unlogged.  ``monkeypatch`` undoes every wrapper at teardown."""
    log = []

    def wrap(owner, *names):
        prefix = f"{owner.__name__}." if isinstance(owner, type) else ""
        for name in names:
            inner = getattr(owner, name) if hasattr(owner, name) else getattr(builtins, name)

            def spy(*args, _name=prefix + name, _inner=inner, **kwargs):
                called = tuple(list(a) if type(a) is list else a for a in args)  # a caller may grow a list later
                result = _inner(*args, **kwargs)
                log.append((_name, called, result))
                return result

            monkeypatch.setattr(owner, name, spy, raising=False)
        return log

    return wrap
