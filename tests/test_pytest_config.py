"""The pytest configuration reports every test, whatever the others do."""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_stop_the_session(pytester):
    # Hypothesis's failure report imports libcst, which warns on import;
    # warnings are errors here, and that one must not abort the session.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", str(path))
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
