"""The benchmark trajectory: the collecting script and the committed points."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def write_result(folder: Path, workload: str, seed: int) -> dict:
    result = {"env": {"workload": workload, "seed": seed}, "answers": {}, "metrics": {"job_p50_ms": [1.0, "ms"]}}
    (folder / f"{workload}.result.json").write_text(json.dumps(result), encoding="utf-8")
    return result


def test_collects_every_workload_unchanged(tmp_path):
    written = {w: write_result(tmp_path, w, 1) for w in trajectory.WORKLOADS}
    assert trajectory.collect(tmp_path) == written


@pytest.mark.parametrize("seed,missing", [(2, None), (1, "nres-check")])
def test_refuses_other_seeds_and_missing_results(tmp_path, seed, missing):
    for w in trajectory.WORKLOADS:
        if w != missing:
            write_result(tmp_path, w, seed)
    with pytest.raises(ValueError):
        trajectory.collect(tmp_path)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_points_hold_seed_1_of_every_workload(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(point) == sorted(trajectory.WORKLOADS)
    for workload, result in point.items():
        assert (result["env"]["workload"], result["env"]["seed"]) == (workload, 1)
        assert result["metrics"]
