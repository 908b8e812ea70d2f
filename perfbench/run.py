"""causet benchmark: time one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload validate_gbt --seed 1 --seconds 30 --trace 0

Runs in one single-threaded process (BLAS pinned to one thread).  Each
operation calls ``causet.cli.main([...])`` in process with stdout captured,
the path a user takes, and is checked: every file it writes must match the
sha256 recorded at the seed commit for the same inputs, or its oracle.

The workload's operations repeat in a closed loop while another iteration
is expected to end within ``--seconds`` (at least twice).  ``--trace 0``
reports the end-to-end metrics as medians over loop iterations;
``--trace 1`` alternates untraced and traced iterations, reports per-layer
medians over the traced ones plus the tracing overhead, and writes the
spans to ``.bench_work/trace-<workload>-seed<seed>.json``.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("validate_gbt", "refute_psm", "estimate_wide")
BLAS_THREADS = "1"
# Operations run inside their work directory and name files relative to it:
# reports embed the input paths, so the bytes must not depend on where the
# checkout lives.
INPUTS = Path("inputs")
MIN_ITERATIONS = 2
IMPORT_REPEATS = 5


def pin_and_import():
    """Pin BLAS to one thread, put the checkout's ``src`` first on the path
    and import causet from it; returns the benchmark modules."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "causet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no causet sources under {src}")
    sys.path.insert(0, str(src))
    import causet.cli
    if Path(causet.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported causet from {causet.cli.__file__}, not {src}")
    import spans
    import workloads
    return causet.cli, spans, workloads


def environment() -> dict:
    """nproc, Python, numpy, OpenBLAS and the BLAS thread count in effect."""
    import numpy as np
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    # numpy wheels bundle scipy-openblas, which can report its own build and threads.
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                       "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        for key, symbol, restype in (
            ("openblas", "scipy_openblas_get_config64_", ctypes.c_char_p),
            ("openblas_core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
            ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                value = fn()
                env[key] = value.decode() if isinstance(value, bytes) else value
    return env


def import_seconds() -> float:
    """Median over fresh interpreters of process start to causet imported."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import causet.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sha256_files(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Runner:
    """Runs operations, times them and checks their outputs."""

    def __init__(self, cli, workload, case: int, refs: dict, tracer=None):
        self.cli = cli
        self.ops = workload.operations(INPUTS, case)
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # outputs produced that do not match their check
        self.next_op = 0
        self.hashes: dict[str, list] = {"untraced": [], "traced": []}

    def iteration(self, traced: bool) -> tuple[float, float, list[int]]:
        """Run every operation once; wall and CPU seconds of the operations."""
        wall = cpu = 0.0
        op_ids = []
        for op in self.ops:
            out = Path("out") / op.name
            shutil.rmtree(out, ignore_errors=True)
            argv = [*op.argv, "--out", str(out)]
            op_id = self.next_op
            self.next_op += 1
            op_ids.append(op_id)
            if traced:
                self.tracer.start_op(op_id)
                self.tracer.install()
            captured = io.StringIO()
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    if traced:
                        code = self.tracer.call("cli", self.cli.main, (argv,))
                    else:
                        code = self.cli.main(argv)
            except Exception:  # an operation that raises is counted, the loop goes on
                code = None
                captured.write(traceback.format_exc())
            t1, c1 = time.perf_counter(), cpu_seconds()
            if traced:
                self.tracer.uninstall()
            wall += t1 - t0
            cpu += c1 - c0
            self.check(op, code, out, captured.getvalue(), traced)
        return wall, cpu, op_ids

    def check(self, op, code, out: Path, output: str, traced: bool) -> None:
        self.attempted += 1
        produced = code == 0 and out.is_dir()
        hashes = sha256_files(out) if produced else {}
        self.hashes["traced" if traced else "untraced"].append({op.name: hashes})
        if not produced:
            self.failed += 1
            print(f"perfbench: {op.name} failed (exit {code}): {' '.join(output.split())[:400]}",
                  file=sys.stderr)
            return
        if op.oracle is not None:
            ok = op.oracle(out)
        else:
            ok = hashes == self.refs["ops"][op.name]
        if not ok:
            self.failed += 1
            self.wrong += 1
            print(f"perfbench: {op.name} output does not match its check", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, spans, workloads = pin_and_import()
    workload = workloads.WORKLOADS[args.workload]
    case = args.seed % workloads.POOL
    refs = json.loads((HERE / "references.json").read_text())[args.workload][str(case)]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        return measure(args, cli, spans, workload, case, refs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, spans, workload, case, refs, tracer) -> int:
    setup_s, setup_ops = [], []
    for k in range(workload.setup_repeats):
        shutil.rmtree(INPUTS, ignore_errors=True)
        INPUTS.mkdir()
        if tracer is not None:
            setup_ops.append(f"setup{k}")
            tracer.start_op(setup_ops[-1])
            tracer.install()
        t0 = time.perf_counter()
        workload.make_inputs(INPUTS, case)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
    inputs_ok = sha256_files(INPUTS) == refs["inputs"]
    if not inputs_ok:
        print("perfbench: generated inputs differ from the reference inputs", file=sys.stderr)

    runner = Runner(cli, workload, case, refs, tracer)
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    traced_ops: list[list[int]] = []
    # Start another iteration only while it is expected to end in the window.
    # Two at least: a traced run needs one untraced and one traced iteration,
    # and an untraced median of one sample is too exposed to machine noise.
    deadline = time.perf_counter() + args.seconds
    elapsed: list[float] = []
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        t0 = time.perf_counter()
        wall, cpu, op_ids = runner.iteration(traced)
        elapsed.append(time.perf_counter() - t0)
        walls[traced].append(wall)
        if traced:
            traced_ops.append(op_ids)
        else:
            cpus.append(cpu)
        if len(elapsed) < MIN_ITERATIONS:
            continue
        if time.perf_counter() + statistics.median(elapsed) > deadline:
            break
    rss = [resource.getrusage(w).ru_maxrss for w in
           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    same_bytes = True
    if tracer is not None:
        per_op = len(runner.ops)
        same_bytes = all(
            t == runner.hashes["untraced"][i % per_op]
            for i, t in enumerate(runner.hashes["traced"]))
    correct = inputs_ok and runner.wrong == 0 and same_bytes
    attempted, failed = runner.attempted, runner.failed

    if tracer is None:
        metrics = {
            "run_s": (statistics.median(walls[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            # After the rusage reading, so these interpreters stay out of peak_rss_mb.
            "setup_s": (import_seconds() + statistics.median(setup_s), "s"),
            "peak_rss_mb": (sum(rss) / 1024.0, "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        per_iter = [tracer.layer_metrics(set(ops)) for ops in traced_ops]
        layer = {m: statistics.median(p[m] for p in per_iter) for m in per_iter[0]}
        layer.update(tracer.setup_metrics(setup_ops))
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = {m: unit for m, unit, _better in spans.LAYER_METRICS}
        metrics = {m: (layer[m], units[m]) for m in units}
        sidecar = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        sidecar.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "case": case,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
            "counts": {str(op): dict(c) for op, c in tracer.counts.items()},
            "hashes": runner.hashes,
            "metrics": {m: v for m, (v, _u) in metrics.items()},
        }))

    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} case={case} iterations="
          f"{len(walls[False])}+{len(walls[True])} traced; failed_frac={failed}/{attempted}"
          f" = {failed / attempted:.4f}")
    print(f"  iteration wall s: untraced {[round(w, 4) for w in walls[False]]}"
          f" traced {[round(w, 4) for w in walls[True]]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
