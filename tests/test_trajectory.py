"""The benchmark trajectory: the collecting script and the committed points."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def write_result(folder: Path, workload: str, seed: int, trace: int) -> dict:
    """A copied run as ``bench/run.py`` writes it, with per-run lists."""
    env = {"workload": workload, "seed": seed, "trace": trace, "passes": 3}
    result = {
        "env": {**env, "job_wall_seconds": {"k4": [0.1]}, "job_reference_seconds": {"k4": [0.2]}},
        "answers": {"k4": {"exit": 0}},
        "metrics": {"job_p50_ms": [1.0, "ms"]} if trace == 0 else {"explore.states": [9.0, "count"]},
    }
    (folder / f"{workload}.trace{trace}.json").write_text(json.dumps(result), encoding="utf-8")
    return {"env": env, "metrics": result["metrics"]}


def test_collects_both_runs_of_every_workload_without_per_run_lists(tmp_path):
    written = {}
    for w in trajectory.WORKLOADS:
        plain, traced = (write_result(tmp_path, w, 1, trace) for trace in (0, 1))
        written[w] = {**plain, "traced": traced}
    assert trajectory.collect(tmp_path) == written


@pytest.mark.parametrize("seed,missing", [(2, None), (1, "nres-check")])
def test_refuses_other_seeds_and_missing_results(tmp_path, seed, missing):
    for w in trajectory.WORKLOADS:
        if w != missing:
            for trace in (0, 1):
                write_result(tmp_path, w, seed, trace)
    with pytest.raises(ValueError):
        trajectory.collect(tmp_path)


def test_refuses_a_run_copied_under_the_other_trace_setting(tmp_path):
    for w in trajectory.WORKLOADS:
        for trace in (0, 1):
            write_result(tmp_path, w, 1, trace)
    untraced = tmp_path / "lha-sampled.trace0.json"
    (tmp_path / "lha-sampled.trace1.json").write_text(untraced.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(ValueError):
        trajectory.collect(tmp_path)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_points_hold_seed_1_of_every_workload(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(point) == sorted(trajectory.WORKLOADS)
    for workload, result in point.items():
        assert (result["env"]["workload"], result["env"]["seed"]) == (workload, 1)
        assert result["metrics"]
        traced = result.get("traced")
        if traced is not None:  # points recorded with both runs
            assert (traced["env"]["workload"], traced["env"]["seed"], traced["env"]["trace"]) == (workload, 1, 1)
            assert traced["metrics"] and not set(trajectory.PER_RUN) & set(result["env"])
