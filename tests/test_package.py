"""The package's public surface: `__all__` against what `__init__` binds."""

import types

import patrolgame


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {name for name, value in vars(patrolgame).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(patrolgame.__all__) == bound
    assert len(patrolgame.__all__) == len(bound)
    assert all(hasattr(patrolgame, name) for name in patrolgame.__all__)
