from __future__ import annotations

import inspect

import randcl


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(randcl.__all__)) == len(randcl.__all__)
    for name in randcl.__all__:
        obj = getattr(randcl, name)
        assert not inspect.ismodule(obj), name
