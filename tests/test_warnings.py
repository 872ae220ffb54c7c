"""The project's pytest settings: warnings are errors, yet a failing
hypothesis test is reported as one failure and the session goes on."""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(pytester):
    # On a failure hypothesis imports libcst to suggest a patch, and libcst
    # raises a DeprecationWarning that "error" alone would turn into an
    # INTERNALERROR in pytest's report hook.
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider",
                                           str(path))
    result.assert_outcomes(failed=1, passed=1)


def test_warning_in_a_test_is_an_error(pytester):
    path = pytester.makepyfile(
        """
        import warnings

        def test_warns():
            warnings.warn("old spelling", DeprecationWarning)
        """)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider",
                                           str(path))
    result.assert_outcomes(failed=1)
