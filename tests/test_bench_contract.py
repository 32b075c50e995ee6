"""The library as the benchmark in bench/ uses it.

bench/checks.py imports and patches library names and counts the
evaluations a run makes against the pattern a report implies.  Its
self-test runs a traced and an untraced solve and diagnosis, so a library
change that removes a name the bench looks up, or that changes the
evaluation pattern, fails here rather than in every benchmark run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_bench_self_test_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    assert checks.self_test() == []
