"""``record_bench`` writes every entry with its provenance."""

from __future__ import annotations

import datetime
import json
import platform

import numpy as np

import benchmarks.conftest as bench


def test_record_bench_entries_carry_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "_REPO_ROOT", tmp_path)
    bench.record_bench("unit", "first", ratio=1.5)
    bench.record_bench("unit", "second", ratio=2.0, jobs=4)

    data = json.loads((tmp_path / "BENCH_unit.json").read_text())
    assert sorted(data) == ["first", "second"]
    assert data["first"]["ratio"] == 1.5
    assert (data["second"]["ratio"], data["second"]["jobs"]) == (2.0, 4)
    for entry in data.values():
        info = entry["provenance"]
        assert set(info) == {"commit", "python", "numpy", "cpu", "nproc", "timestamp"}
        assert info["python"] == platform.python_version()
        assert info["numpy"] == np.__version__
        assert info["commit"] and info["cpu"]
        assert info["nproc"] >= 1
        stamp = datetime.datetime.fromisoformat(info["timestamp"])
        assert stamp.utcoffset() == datetime.timedelta(0)
