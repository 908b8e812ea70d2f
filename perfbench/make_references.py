"""Record the reference sha256 of every input and output file, per case.

    python3 perfbench/make_references.py [workload ...]

Run this only at a commit whose reports are the reference (the references
in ``references.json`` were taken at the seed commit, d6f8c25); a change
that makes any report differ must fail the benchmark's check, not rewrite
it.  Operations with an oracle are checked against the oracle instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run


def main(names: list[str]) -> int:
    cli, _spans, workloads = run.pin_and_import()
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    work = run.ROOT / ".bench_work" / f"references-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        for name in names or run.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            refs[name] = {}
            for case in range(workloads.POOL):
                shutil.rmtree(run.INPUTS, ignore_errors=True)
                run.INPUTS.mkdir()
                workload.make_inputs(run.INPUTS, case)
                entry = {"inputs": run.sha256_files(run.INPUTS), "ops": {}}
                for op in workload.operations(run.INPUTS, case):
                    if op.oracle is not None:
                        continue
                    out = Path("out") / op.name
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([*op.argv, "--out", str(out)])
                    if code != 0:
                        raise SystemExit(f"{name} case {case}: {op.name} exited {code}")
                    entry["ops"][op.name] = run.sha256_files(out)
                refs[name][str(case)] = entry
                print(f"{name} case {case}: {sum(map(len, entry['ops'].values()))} files",
                      flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
