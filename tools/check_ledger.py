#!/usr/bin/env python
"""Check one benchmark run's exact metrics against the work-count ledger.

``perfbench/run.py`` labels every metric ``host`` (wall clock or memory of
the run: noisy), ``count`` (work the program did) or ``sim`` (the modelled
hardware).  Counts and sim metrics repeat exactly for a seed, so the root
``BENCH_ledger.json`` records them per workload and seed, and any change
to one is a change in what the program does.  This checker compares one
traced run against its ledger entry and fails on any difference: a
metric whose value moved, appeared or disappeared.

Usage, from the repository root::

    python3 perfbench/run.py --workload wafer_trim --seed 2010 \\
        --seconds 2 --trace 1 > run.txt
    python3 tools/check_ledger.py --workload wafer_trim --seed 2010 run.txt

The input is ``run.py``'s standard output (``-`` reads standard input):
its report lines give each metric's label, its last line the JSON
object with the values.  ``--update`` rewrites the entry from the run
instead of checking it; list every entry it rewrites in CHANGES.md.

Exit status: 0 when the run matches, 1 on a mismatch or a missing entry,
2 when the input is not a traced ``run.py`` report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, List

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ledger.json"

#: A report line: ``  <name>  <value> <unit>  <host|count|sim>``.
_REPORT_LINE = re.compile(r"^\s+(\S+)\s+\S+\s+\S+\s+(host|count|sim)\s*$")


class ReportError(ValueError):
    """The input is not a traced ``run.py`` report."""


def exact_metrics(text: str) -> Dict[str, float]:
    """The count and sim metrics of one ``run.py --trace 1`` report."""
    lines = text.strip().splitlines()
    if not lines:
        raise ReportError("empty input")
    try:
        values = json.loads(lines[-1])["metrics"]
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        raise ReportError(f"last line is not run.py's JSON object ({error})")
    labels = dict(
        match.groups() for match in map(_REPORT_LINE.match, lines) if match
    )
    exact = sorted(name for name, label in labels.items() if label != "host")
    if not exact:
        raise ReportError("no count or sim metric lines in the report")
    missing = [name for name in exact if name not in values]
    if missing:
        raise ReportError(
            f"JSON lacks {', '.join(missing)}: run with --trace 1"
        )
    return {name: values[name]["value"] for name in exact}


def differences(expected: Dict[str, float], actual: Dict[str, float]) -> List[str]:
    """One line per metric whose ledger and run values differ."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want != got:
            lines.append(f"  {name}: ledger {want!r}, run {got!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="run.py output file, or - for stdin")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the ledger entry from this run")
    parser.add_argument("--ledger", type=pathlib.Path, default=LEDGER)
    args = parser.parse_args(argv)

    try:
        text = (sys.stdin.read() if args.report == "-"
                else pathlib.Path(args.report).read_text(encoding="utf-8"))
        actual = exact_metrics(text)
    except (OSError, ReportError) as error:
        print(f"check_ledger: {args.report}: {error}", file=sys.stderr)
        return 2

    ledger = json.loads(args.ledger.read_text(encoding="utf-8"))
    entries = ledger.setdefault("workloads", {}).setdefault(args.workload, {})
    seed = str(args.seed)
    if args.update:
        entries[seed] = actual
        args.ledger.write_text(
            json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"check_ledger: rewrote {args.workload} seed {seed}")
        return 0
    if seed not in entries:
        print(f"check_ledger: no ledger entry for {args.workload} seed {seed}",
              file=sys.stderr)
        return 1
    diff = differences(entries[seed], actual)
    if diff:
        print(f"check_ledger: {args.workload} seed {seed} differs from the ledger:",
              file=sys.stderr)
        print("\n".join(diff), file=sys.stderr)
        return 1
    print(f"check_ledger: {args.workload} seed {seed}: "
          f"{len(actual)} metrics match the ledger")
    return 0


if __name__ == "__main__":
    sys.exit(main())
