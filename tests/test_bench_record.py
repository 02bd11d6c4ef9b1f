"""bench/record.py's reading of a benchmark run and its summary of the runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_summary_is_the_median_and_inclusive_quartiles():
    assert record.summarize([3.0, 1.0, 2.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [3.0, 1.0, 2.0, 4.0, 5.0]}
    assert record.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "runs": [7.0]}


def test_a_run_gives_its_env_line_with_a_relative_package_path_and_its_verdict(tmp_path):
    env = {"commit": "abc", "patrolgame_file": str(tmp_path / "src" / "patrolgame" / "x.py")}
    verdict = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}
    stdout = "\n".join([record.ENV_PREFIX + json.dumps(env), "perfbench detail {}",
                        json.dumps(verdict)])
    got_env, got_verdict = record.parse_run(stdout, tmp_path)
    assert got_env == {"commit": "abc", "patrolgame_file": str(Path("src/patrolgame/x.py"))}
    assert got_verdict == verdict

