"""The shipped examples must run (smoke-tested at tiny scale)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(*args, timeout=300):
    return subprocess.run(
        [sys.executable, *args],
        cwd=EXAMPLES.parent,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart_tiny():
    result = run_example(EXAMPLES / "quickstart.py", "bfs-citation", "tiny")
    assert result.returncode == 0, result.stderr
    assert "speedup over round-robin" in result.stdout


def test_quickstart_other_benchmark():
    result = run_example(EXAMPLES / "quickstart.py", "amr", "tiny")
    assert result.returncode == 0, result.stderr
    assert "IPC=" in result.stdout


def test_scheduler_timeline_tiny():
    result = run_example(EXAMPLES / "scheduler_timeline.py", "clr-citation", "tiny")
    assert result.returncode == 0, result.stderr
    assert "SMX0" in result.stdout


def test_concurrent_kernels_tiny():
    result = run_example(EXAMPLES / "concurrent_kernels.py", "tiny")
    assert result.returncode == 0, result.stderr
    assert "finished at cycle" in result.stdout


def test_locality_analysis_tiny():
    result = run_example(EXAMPLES / "locality_analysis.py", "tiny")
    assert result.returncode == 0, result.stderr
    assert "parent-child" in result.stdout
    assert "AVERAGE" in result.stdout


def test_custom_workload():
    result = run_example(EXAMPLES / "custom_workload.py", "tiny")
    assert result.returncode == 0, result.stderr
    assert "Scheduler comparison" in result.stdout


def test_launch_latency_study_tiny():
    result = run_example(EXAMPLES / "launch_latency_study.py", "bfs-citation", "tiny")
    assert result.returncode == 0, result.stderr
    assert "sweeping launch latency" in result.stdout


def test_all_examples_have_docstrings_and_main():
    for path in EXAMPLES.glob("*.py"):
        text = path.read_text()
        assert '"""' in text.split("\n", 2)[2] or text.startswith("#!"), path
        assert '__name__ == "__main__"' in text, path
