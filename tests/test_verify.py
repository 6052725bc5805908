import pytest

from nlch import verify


@pytest.mark.parametrize("check", [fn for _, fn in verify.ALL_CHECKS],
                         ids=[name for name, _ in verify.ALL_CHECKS])
def test_packaged_property(check):
    ok, detail = check()
    assert ok, detail
