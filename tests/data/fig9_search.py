#!/usr/bin/env python3
"""Pins the search of every Figure 9 row to tests/data/fig9_search.json.

Usage, from the repository root, after `cargo build --release -p
psketch-suite --bin fig9` (the binary is read from $CARGO_TARGET_DIR,
default target/):

    python3 tests/data/fig9_search.py          # compare, exit 1 on any difference
    python3 tests/data/fig9_search.py --write  # regenerate the file

Both run `fig9 --report-json DIR` and read, per row, the
candidates tried (in order), the iteration count, the synthesizer's
circuit nodes, the checker's states and the SAT solver's decisions,
propagations, conflicts and restarts. Every run is sequential and
deterministic, so these are a function of the sketch and the code: a
change that keeps the search identical leaves them all equal, and a
change that moves the search regenerates the file with --write and
says so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PINNED = os.path.join(ROOT, "tests", "data", "fig9_search.json")
FIG9 = os.path.join(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")),
                    "release", "fig9")
COUNTERS = ["resolvable", "iterations", "synth_nodes", "states", "sat_decisions",
            "sat_propagations", "sat_conflicts", "sat_restarts"]
ABOUT = ("Figure 9 search pin: per row, the candidates tried and the search counters of "
         "`fig9 --report-json`. Regenerate with `python3 tests/data/fig9_search.py --write` "
         "after a release build of fig9; a change that moves any value here changes the "
         "search and says so in CHANGES.md.")


def run_fig9():
    """Runs fig9 and returns its rows, in its order."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([FIG9, "--report-json", out], stdout=subprocess.PIPE,
                              text=True, check=True)
        lines = proc.stdout.split("==== TSV ====\n", 1)[1].splitlines()
        rows = []
        for line in lines[1:]:
            if line.startswith("===="):
                break
            benchmark, test = line.split("\t")[:2]
            with open(os.path.join(out, f"{benchmark}_{test}.json")) as f:
                report = json.load(f)
            row = {"benchmark": benchmark, "test": test}
            row.update((k, report[k]) for k in COUNTERS)
            row["candidates"] = [r["candidate"] for r in report["records"]]
            rows.append(row)
        return rows


def render(rows):
    """One line per row's counters and one per candidate, so a diff
    points at the row and the iteration that moved."""
    out = ["{", f'  "about": {json.dumps(ABOUT)},', '  "rows": [']
    for i, row in enumerate(rows):
        head = {k: v for k, v in row.items() if k != "candidates"}
        out.append("    {" + json.dumps(head)[1:-1] + ', "candidates": [')
        cands = row["candidates"]
        out += [f"      {json.dumps(c)}" + ("," if j + 1 < len(cands) else "")
                for j, c in enumerate(cands)]
        out.append("    ]}" + ("," if i + 1 < len(rows) else ""))
    out += ["  ]", "}"]
    return "\n".join(out) + "\n"


def main():
    args = sys.argv[1:]
    if args not in ([], ["--write"]):
        sys.exit("usage: fig9_search.py [--write]")
    rows = run_fig9()
    if args == ["--write"]:
        with open(PINNED, "w") as f:
            f.write(render(rows))
        print(f"wrote {len(rows)} rows to {PINNED}")
        return
    with open(PINNED) as f:
        pinned = json.load(f)["rows"]
    key = lambda r: (r["benchmark"], r["test"])
    want = {key(r): r for r in pinned}
    got = {key(r): r for r in rows}
    errors = [f"row {k} is missing" for k in want if k not in got]
    errors += [f"row {k} is not pinned" for k in got if k not in want]
    for k in want.keys() & got.keys():
        for field in COUNTERS + ["candidates"]:
            if want[k][field] != got[k][field]:
                errors.append(f"{k[0]} [{k[1]}]: {field} {got[k][field]} != pinned {want[k][field]}")
    if errors:
        print("\n".join(errors))
        sys.exit(1)
    print(f"fig9 search OK: {len(rows)} rows equal the pin")


if __name__ == "__main__":
    main()
