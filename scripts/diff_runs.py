#!/usr/bin/env python3
"""Run two numfabric_run binaries on the same arguments and diff the output.

    scripts/diff_runs.py BIN_A BIN_B -- <numfabric_run args>

Both binaries run from the current directory with identical arguments.  The
wall-clock values are blanked before comparing: the `wall_ms`,
`events_per_sec` and `solver_wall_us` scalars (also as name/value rows of a
merged sweep table, and in --format=json output) and the `wall_ms` column
of the `sweep_runs` table.  Everything else -- every other byte of the
metric output, stderr and the exit status -- must match.  An `--output=FILE`
argument is redirected to one temporary file per binary, and those files are
compared instead of stdout.

Exit status: 0 when the runs are identical, 1 when they differ (a unified
diff is printed), 2 on a usage error.
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile

WALL_NAMES = {"wall_ms", "events_per_sec", "solver_wall_us"}
BLANK = "<wall>"


def normalize_csv(text):
    out = []
    wall_columns = set()
    header_next = False
    for line in text.splitlines():
        if line.startswith("# scalar,"):
            fields = line.split(",", 2)
            if len(fields) == 3 and fields[1] in WALL_NAMES:
                line = f"# scalar,{fields[1]},{BLANK}"
        elif line.startswith("# table,"):
            header_next = True
            wall_columns = set()
        elif header_next:
            header_next = False
            wall_columns = {i for i, name in enumerate(line.split(","))
                            if name in WALL_NAMES}
        elif line and not line.startswith("#"):
            fields = line.split(",")
            for i, field in enumerate(fields):
                if i in wall_columns:
                    fields[i] = BLANK
                elif field in WALL_NAMES and i + 1 < len(fields):
                    fields[i + 1] = BLANK
            line = ",".join(fields)
        out.append(line)
    return "\n".join(out) + "\n"


def normalize_json(doc):
    for name in WALL_NAMES & set(doc.get("scalars", {})):
        doc["scalars"][name] = BLANK
    for table in doc.get("tables", []):
        wall_columns = {i for i, name in enumerate(table.get("columns", []))
                        if name in WALL_NAMES}
        for row in table.get("rows", []):
            for i, value in enumerate(row):
                if i in wall_columns:
                    row[i] = BLANK
                elif value in WALL_NAMES and i + 1 < len(row):
                    row[i + 1] = BLANK
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def normalize(text):
    try:
        return normalize_json(json.loads(text))
    except (ValueError, AttributeError):
        return normalize_csv(text)


def run(binary, args, scratch, tag):
    output = None
    command = [binary]
    for arg in args:
        if arg.startswith("--output="):
            output = os.path.join(scratch, tag + "-" + os.path.basename(arg[9:]))
            arg = "--output=" + output
        command.append(arg)
    proc = subprocess.run(command, capture_output=True, text=True)
    metrics = proc.stdout
    if output is not None:
        metrics = ""
        if os.path.exists(output):
            with open(output) as f:
                metrics = f.read()
    return {"exit status": f"{proc.returncode}\n",
            "metrics": normalize(metrics),
            "stderr": proc.stderr.replace(binary, "BIN")}


def main(argv):
    if len(argv) < 4 or argv[3] != "--":
        print("usage: diff_runs.py BIN_A BIN_B -- <numfabric_run args>",
              file=sys.stderr)
        return 2
    bin_a, bin_b, args = argv[1], argv[2], argv[4:]
    with tempfile.TemporaryDirectory(prefix="diff_runs-") as scratch:
        a = run(bin_a, args, scratch, "a")
        b = run(bin_b, args, scratch, "b")
    same = True
    for part in a:
        if a[part] == b[part]:
            continue
        same = False
        sys.stdout.writelines(difflib.unified_diff(
            a[part].splitlines(keepends=True), b[part].splitlines(keepends=True),
            fromfile=f"{bin_a} ({part})", tofile=f"{bin_b} ({part})"))
    print(("identical: " if same else "DIFFERENT: ") + " ".join(args))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
