"""Every committed trajectory point (a root BENCH_*.json) parses and carries
the fields a comparison needs, with as many change runs as parent runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = (
    "tag", "workload", "command", "seeds", "order",
    "parent_sha", "change_sha", "summary", "runs",
)


def test_there_is_a_trajectory_point():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_trajectory_point_is_well_formed(path):
    record = json.loads(path.read_text())
    missing = [f for f in FIELDS if f not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert path.name == f"BENCH_{record['tag']}.json"
    runs = record["runs"]
    assert set(runs) == {"parent", "change"}
    assert len(runs["parent"]) == len(runs["change"]) == len(record["seeds"])
    for side in ("parent", "change"):
        sha = record[f"{side}_sha"]
        for run in runs[side]:
            assert run["workload"] == record["workload"]
            assert run["git_sha"] == sha
    assert record["summary"]
