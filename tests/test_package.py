"""The package's public names."""

import resizenet


def test_every_exported_name_resolves():
    assert [n for n in resizenet.__all__ if not hasattr(resizenet, n)] == []
