"""The benchmark's traced runs stay correct.

``perfbench/run.py --trace 1`` fails a run when an answer is wrong or a
span its workload requires saw no calls, so a refactor that routes a
stage around a traced public function (``infinite_supports``, say)
fails here rather than only in the benchmark.  The tests only read
``perfbench/``; its workers write to ``.perfbench_out/``.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["classify-1eq", "structure-random", "membership",
                                  "cli-fixtures"])
def test_traced_workload_is_correct(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import measure
    record = measure(name, seed=1, seconds=0.3, trace=True)
    assert record["correct"], record["failures"]
    assert record["attempted"] > 0
