"""The test harness itself: a failing property is reported like any other
failure under the suite's warnings-as-errors setting."""

from pathlib import Path

pytest_plugins = ["pytester"]

TESTS = Path(__file__).parent


def test_failing_property_is_reported_and_the_session_goes_on(pytester):
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makeini(
        f"[pytest]\nfilterwarnings = error\npythonpath = {TESTS.parent / 'src'}\n"
    )
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_broken_property(x):
            assert x < 0

        def test_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
