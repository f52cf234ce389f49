"""The test suite's own tooling: failures stay readable under -W error."""

import os

import connsweep

CONFTEST = os.path.join(os.path.dirname(__file__), "conftest.py")


def test_failing_property_prints_its_example_under_warnings_as_errors(
        pytester, monkeypatch):
    """A failing hypothesis test, run with this suite's conftest and every
    warning an error, ends as a plain failure that names its falsifying
    example, not as an INTERNALERROR."""
    with open(CONFTEST, encoding="utf-8") as handle:
        pytester.makeconftest(handle.read())
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10
    """)
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(connsweep.__path__[0]))
    result = pytester.runpytest_subprocess("-W", "error", "-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
