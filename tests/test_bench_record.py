"""bench/record.py's reading of a benchmark run and its summary of the runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("stdout, counts", [
    ("....\n718 passed in 19.22s\n", (718, 0, 0)),
    ("F...\nFAILED tests/x.py::t - 3 passed\n2 failed, 716 passed, 1 warning in 20.01s\n",
     (716, 2, 0)),
    ("1 failed, 700 passed, 3 errors in 21.50s", (700, 1, 3)),
    ("1 error in 0.50s", (0, 0, 1)),
    ("", (0, 0, 0)),
], ids=["passed", "failed", "errors", "one-error", "empty"])
def test_a_tier1_run_gives_the_counts_on_its_last_line(stdout, counts):
    assert record.parse_tier1(stdout) == dict(zip(("passed", "failed", "errors"), counts))


@pytest.mark.parametrize("status, code", [(0, 0), (1 << 8, 1), (4 << 8, 4), (9, -9)],
                         ids=["ok", "exit-1", "exit-4", "killed"])
def test_a_child_gives_its_exit_code_wall_time_and_peak_rss_in_mb(status, code):
    assert record.parse_child(status, 51200, 1.5) == {"exit": code, "wall_s": 1.5,
                                                      "peak_rss_mb": 50.0}


def test_each_child_reports_its_own_peak_rss():
    # a child's peak starts at its parent's, so both run from a fresh, small
    # interpreter; RUSAGE_CHILDREN would give the small child the large one's
    script = ("import json, sys; sys.path.insert(0, 'bench'); import record; "
              "print(json.dumps([record.run_child([sys.executable, '-c', code], '.') "
              "for code in (\"b = b'x' * (64 << 20)\", 'pass')]))")
    large, small = json.loads(subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True,
                                             capture_output=True, text=True).stdout)
    assert large["exit"] == small["exit"] == 0
    assert large["peak_rss_mb"] >= 64 > small["peak_rss_mb"] + 32
    assert large["wall_s"] > 0 and small["wall_s"] > 0


def test_cli_commands_record_every_run_of_the_checkout(monkeypatch):
    monkeypatch.setattr(record, "CLI_REPEATS", 2)
    monkeypatch.setattr(record, "CLI_COMMANDS", {
        "solve": ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2"],
        "refused": ["solve", "--family", "star", "--n", "3", "--tau", "1,2,2"]})
    got = record.record_cli(ROOT)
    assert [got[name]["exit"] for name in ("solve", "refused")] == [[0, 0], [2, 2]]
    assert got["solve"]["argv"] == record.CLI_COMMANDS["solve"]
    for name in got:
        assert got[name]["wall_s"]["unit"] == "s" and len(got[name]["wall_s"]["runs"]) == 2
        assert got[name]["peak_rss_mb"]["unit"] == "MB"
        assert 0 < got[name]["peak_rss_mb"]["q1"] <= got[name]["peak_rss_mb"]["q3"]


def test_src_lines_count_each_package_file_and_their_total(tmp_path):
    package = tmp_path / "src" / "patrolgame"
    package.mkdir(parents=True)
    (package / "b.py").write_text("x = 1\ny = 2\n")
    (package / "a.py").write_text("")
    (package / "notes.txt").write_text("not code\n")
    assert record.count_src_lines(tmp_path) == {"files": {"a.py": 0, "b.py": 2}, "total": 2}
    got = record.count_src_lines(ROOT)
    assert "cli.py" in got["files"] and got["total"] == sum(got["files"].values())
