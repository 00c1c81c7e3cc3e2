"""Every committed benchmark record (BENCH_*.json at the repository root) is
well formed: each run it holds is the last line of a correct bench/run.py
pass, with no failed query."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_bench_records_are_correct_runs():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["runs"], path.name
        for run in record["runs"]:
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, (path.name, run)
