"""rdbalance benchmark: one seeded workload, closed loop, one client.

    python3 rdbench/run.py --workload relax-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rdbalance is imported from its
``src`` directory.  Operations run one at a time for ``--seconds`` seconds
and every output is checked.  Timings are scaled to one host speed with a
reference kernel run between operations (see ``reference_s``).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-module metrics from a
traced run with ``--trace 1``.  The full record,
with provenance, and the traced run's spans go to ``rdbench/.work/``.
See rdbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3  # setup_s is the median of this many fresh set-ups
CHILD_TIMEOUT_S = 120
# Timings are scaled to one host speed: each is multiplied by
# REF_NOMINAL_S / (reference_s() measured around it).  REF_NOMINAL_S is
# about the median of reference_s() run back to back on the 2-vCPU VM the
# bounds were set on.
REF_NOMINAL_S = 0.018
SEGMENT_S = 0.2  # operation time between two reference measurements
REF_SHARE = 0.03  # a boundary runs the kernel for about this share of its segment


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reference_s() -> float:
    """Wall time of a fixed kernel that runs no rdbalance code: Python
    bytecode on dicts, rational arithmetic, float formatting, small numpy
    calls and passes over a 1 MiB array, the kinds of work rdbalance does.
    It samples how fast the host runs now."""
    import numpy as np

    start = time.perf_counter()
    counts = {}
    for i in range(15000):
        counts[i % 97] = counts.get(i % 97, 0) + 3 * i
    acc = Fraction(0)
    for i in range(1, 175):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    ",".join(f"{x:.17g}" for x in np.linspace(0.0, 1.0, 3000).tolist())
    a, m = np.arange(2000.0), np.eye(8)
    for _ in range(375):
        a = np.sqrt(a * 0.5 + 1.0)
        m = m @ m * 0.5
    big = np.ones(1 << 17)
    for _ in range(60):
        np.multiply(big, 0.5, out=big)
        np.add(big, 1.0, out=big)
    return time.perf_counter() - start


def import_rdbalance():
    """Import rdbalance from this checkout's src; seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    rdb = importlib.import_module("rdbalance")
    importlib.import_module("rdbalance.cli")
    elapsed = time.perf_counter() - start
    if Path(rdb.__file__).resolve().parent != SRC / "rdbalance":
        raise ImportError(f"rdbalance came from {rdb.__file__}, not {SRC}")
    return rdb, elapsed


def make_workload(rdb, name, seed, scale, stream, workdir):
    import numpy as np
    import workloads

    cls = workloads.WORKLOADS[name]
    params = cls.TOY if scale == "toy" else cls.FULL
    rng = np.random.default_rng([seed, stream])
    return cls(rdb, rng, workdir, dict(params)), params


def warm_up(workload) -> float:
    """Run one operation outside the measured loop; its wall time."""
    import workloads

    inp = workload.prepare(0)
    start = time.perf_counter()
    try:
        out = workload.execute(inp)
    except workloads.OperationFailed:  # counted in the loop, not here
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    workload.check(inp, out)
    return elapsed


def setup_once(rdb, import_s, args, workdir) -> tuple[float, float]:
    """Import time plus one warm-up operation on its own input stream, as
    measured and scaled to the nominal host speed."""
    workload, _ = make_workload(rdb, args.workload, args.seed, args.scale,
                                1, workdir)
    wall = import_s + warm_up(workload)
    ref = statistics.median(reference_s() for _ in range(3))
    return wall, wall * REF_NOMINAL_S / ref


def setup_in_child(args) -> tuple[float, float]:
    """Set up once in a fresh interpreter, as a user's first run would."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--scale", args.scale, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def provenance(args, params, rdb) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "rdbalance": rdb.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": params,
    }


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_loop(workload, seconds, tracer):
    """Closed loop until the deadline; per-operation records.

    A traced run alternates blocks of ``workload.cycle`` operations between
    untraced and traced, and runs at least one block of each.  After every
    SEGMENT_S of operation time the reference kernel runs; each operation
    of the segment gets the mean of the reference times on either side.
    """
    import workloads

    records = []
    min_ops = 2 * workload.cycle if tracer is not None else 1
    ref_before = reference_s()
    segment = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        inp = workload.prepare(i)
        traced = tracer is not None and (i // workload.cycle) % 2 == 1
        if traced:
            tracer.install(i)
        start = time.perf_counter()
        cause = refused = None
        try:
            out = workload.execute(inp)
        except workloads.KnownDefect as exc:
            refused = exc.cause
        except workloads.OperationFailed as exc:
            cause = exc.cause
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        record = {"i": i, "s": elapsed, "traced": traced, "failed": cause,
                  "refused": refused, "wrong": None, "rate_err": None,
                  "work": workload.work(inp)}
        if cause is None and refused is None:
            try:
                record["rate_err"] = workload.check(inp, out)
            except workloads.CheckFailure as exc:
                record["wrong"] = exc.cause
        records.append(record)
        segment.append(record)
        if sum(r["s"] for r in segment) >= SEGMENT_S:
            ref_before = scale_segment(segment, ref_before)
            segment = []
        i += 1
    if segment:
        scale_segment(segment, ref_before)
    return records


def scale_segment(segment, ref_before) -> float:
    """Give each record its reference time and scaled time ``norm_s``;
    returns the reference time measured after the segment."""
    runs = max(1, round(REF_SHARE * sum(r["s"] for r in segment) / REF_NOMINAL_S))
    ref_after = statistics.mean(reference_s() for _ in range(runs))
    ref = (ref_before + ref_after) / 2
    for r in segment:
        r["ref_s"] = ref
        r["norm_s"] = r["s"] * REF_NOMINAL_S / ref
    return ref_after


def succeeded(records):
    return [r for r in records if r["failed"] is None and r["refused"] is None
            and r["wrong"] is None]


def end_to_end(records, tail_pct, setup_samples, rss_mb):
    ok = succeeded(records)
    times = [r["norm_s"] for r in ok]
    total_s = sum(r["norm_s"] for r in records)
    work = sum(r["work"] for r in ok)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (percentile(times, tail_pct), "s"),
        "work_per_s": (work / total_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    beyond = sum(t > metrics["op_s_tail"][0] for t in times)
    notes = [f"op_s_tail is p{tail_pct} of {len(times)} operations "
             f"({beyond} beyond it)",
             "setup_s samples (as measured / scaled): " + ", ".join(
                 f"{w:.4f} / {s:.4f}" for w, s in setup_samples)]
    extra = {
        "failed_frac": sum(bool(r["failed"] or r["wrong"]) for r in records)
        / len(records),
        "known_defect_frac": sum(bool(r["refused"]) for r in records)
        / len(records),
        "op_s_p50_as_measured": statistics.median(r["s"] for r in ok),
        "host_speed": REF_NOMINAL_S / statistics.median(
            r["ref_s"] for r in records),
    }
    rate_errs = [r["rate_err"] for r in ok if r["rate_err"] is not None]
    if rate_errs:
        extra["rate_rel_err"] = statistics.median(rate_errs)
        extra["cell_steps_per_s"] = metrics["work_per_s"][0]
    else:
        extra["networks_per_s"] = metrics["work_per_s"][0]
    return metrics, extra, notes


def per_layer(records, tracer):
    ok = succeeded(records)
    traced = [r["norm_s"] for r in ok if r["traced"]]
    plain = [r["norm_s"] for r in ok if not r["traced"]]
    n_traced = sum(r["traced"] for r in records)
    metrics = tracer.per_op(max(n_traced, 1))
    overhead = statistics.median(traced) - statistics.median(plain) \
        if traced and plain else float("nan")
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [f"traced {n_traced} of {len(records)} operations; overhead is "
             f"traced minus untraced op_s_p50"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("relax-1d", "relax-2d", "networks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the self-check only")
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: time one set-up and print it")
    args = ap.parse_args(argv)

    if not (SRC / "rdbalance" / "__init__.py").is_file():
        print(f"error: no rdbalance sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # must precede the first numpy import
        os.environ[var] = BLAS_THREADS
    rdb, import_s = import_rdbalance()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = setup_once(rdb, import_s, args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        else:
            setup_samples += [setup_in_child(args)
                              for _ in range(SETUP_REPEATS - 1)]
        workload, params = make_workload(rdb, args.workload, args.seed,
                                         args.scale, 0, workdir)
        records = run_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics, extra, notes = end_to_end(records, workload.tail_pct,
                                           setup_samples, rss_mb)
    else:
        metrics, notes = per_layer(records, tracer)
        extra = {}
        tracer.write_spans(WORK / f"spans-{tag}.tsv")
    failures, refusals = {}, {}
    for r in records:
        cause = r["failed"] or (r["wrong"] and f"wrong output: {r['wrong']}")
        if cause:
            failures[cause] = failures.get(cause, 0) + 1
        if r["refused"]:
            refusals[r["refused"]] = refusals.get(r["refused"], 0) + 1
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"] or r["wrong"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, provenance=provenance(args, params, rdb),
                  failures=failures, known_defects=refusals, extra=extra,
                  notes=notes,
                  operations=[[r["s"], r["ref_s"], r["traced"],
                               r["failed"] or r["refused"] or r["wrong"]]
                              for r in records])
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print("provenance " + json.dumps(record["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} = {value:.6g}")
    for note in notes:
        print(f"note: {note}")
    for cause, count in sorted(failures.items()):
        print(f"failure: {count} x {cause}")
    for cause, count in sorted(refusals.items()):
        print(f"known defect: {count} x {cause}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
