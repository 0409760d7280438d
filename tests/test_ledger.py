"""The work-count ledger and its checker (``tools/check_ledger.py``).

The checker reads ``perfbench/run.py`` output: report lines labelling
each metric ``host``/``count``/``sim``, then one JSON line with the
values.  These tests feed it reports built from the committed ledger,
so they run without the benchmark itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_ledger.py"
LEDGER = REPO / "BENCH_ledger.json"

WORKLOADS = ("serve_backed_zipf", "serve_timing_rw", "wafer_trim")
#: Metrics the ledger must pin for every workload and seed.
PINNED = (
    "read_batch.calls", "read_batch.words", "ecc.hamming.decode_words.rows",
    "core.read_many.bits", "engine.events", "retried_words",
    "sim_read_p99_ns", "wafer_ship_rate", "wafer_coverage",
    "wafer_tester_ms_per_die",
)


def report(exact, host=None):
    """A ``run.py``-shaped report: labelled lines, then the JSON line."""
    host = {"host_kitems_per_s": 12.5} if host is None else host
    lines = ["workload w  seed 1  timed runs 3  threads 2"]
    for name, value in {**exact, **host}.items():
        label = "host" if name in host else "count"
        lines.append(f"  {name:<36} {value:>16.6g} {'unit':<9} {label}")
    lines.append("  check conservation                               ok")
    metrics = {
        name: {"value": value, "unit": "unit"}
        for name, value in {**exact, **host}.items()
    }
    lines.append(json.dumps({"correct": True, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def check(tmp_path, text, *args, ledger=LEDGER):
    path = tmp_path / "run.txt"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, str(CHECKER), str(path), "--ledger", str(ledger), *args],
        capture_output=True, text=True,
    )


@pytest.fixture
def entry():
    return json.loads(LEDGER.read_text())["workloads"]["wafer_trim"]["2010"]


def test_ledger_pins_every_workload_at_both_seeds():
    workloads = json.loads(LEDGER.read_text())["workloads"]
    assert set(workloads) == set(WORKLOADS)
    for name in WORKLOADS:
        assert set(workloads[name]) == {"2010", "2011"}, name
        for seed, metrics in workloads[name].items():
            assert set(PINNED) <= set(metrics), (name, seed)
    assert workloads["wafer_trim"]["2010"]["wafer_coverage"] == 1.0


def test_matching_run_passes_and_host_metrics_are_ignored(tmp_path, entry):
    proc = check(tmp_path, report(entry, host={"host_kitems_per_s": 1e9}),
                 "--workload", "wafer_trim", "--seed", "2010")
    assert proc.returncode == 0, proc.stderr
    assert f"{len(entry)} metrics match" in proc.stdout


def test_any_moved_count_fails(tmp_path, entry):
    moved = dict(entry, wafer_ship_rate=entry["wafer_ship_rate"] - 2.0**-40)
    proc = check(tmp_path, report(moved),
                 "--workload", "wafer_trim", "--seed", "2010")
    assert proc.returncode == 1
    assert "wafer_ship_rate" in proc.stderr


def test_appearing_metric_and_missing_entry_fail(tmp_path, entry):
    proc = check(tmp_path, report(dict(entry, new_counter=1.0)),
                 "--workload", "wafer_trim", "--seed", "2010")
    assert proc.returncode == 1 and "new_counter" in proc.stderr
    proc = check(tmp_path, report(entry),
                 "--workload", "wafer_trim", "--seed", "1999")
    assert proc.returncode == 1 and "no ledger entry" in proc.stderr


def test_untraced_or_garbage_input_exits_two(tmp_path, entry):
    untraced = report(entry).replace('"wafer_coverage"', '"dropped"')
    for text in ("", "not a report\n", untraced):
        proc = check(tmp_path, text, "--workload", "wafer_trim", "--seed", "2010")
        assert proc.returncode == 2, (text, proc.stderr)


def test_update_rewrites_one_entry(tmp_path, entry):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(LEDGER.read_text())
    moved = dict(entry, engine_events=3.0)
    args = ("--workload", "wafer_trim", "--seed", "2010")
    assert check(tmp_path, report(moved), *args, ledger=ledger).returncode == 1
    proc = check(tmp_path, report(moved), *args, "--update", ledger=ledger)
    assert proc.returncode == 0, proc.stderr
    assert check(tmp_path, report(moved), *args, ledger=ledger).returncode == 0
    after = json.loads(ledger.read_text())["workloads"]
    before = json.loads(LEDGER.read_text())["workloads"]
    assert after["wafer_trim"]["2010"] == moved
    assert after["wafer_trim"]["2011"] == before["wafer_trim"]["2011"]
