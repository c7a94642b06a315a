"""Run one exrank benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 10 --trace 0

Workloads are ``schedule``, ``sweep`` and ``label`` (see GLOSSARY.md).  The
inputs are made from ``--seed``.  Set-up runs several times and its median is
reported; then the workload's timed call repeats until ``--seconds`` have
passed, at least once.  Every run's outputs are checked.

``--trace 0`` reports the end-to-end metrics: ``wall_ref``, the median wall
time of a call divided by the time of a fixed reference kernel (reference.py)
measured just before and after it, then ``setup_s`` and ``peak_rss_mb``.  Raw
times and quality metrics are printed too.  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics, with the tracing
overhead measured against the untraced runs.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a check failed.  The full result, with
the environment it was measured in, is also written to ``.bench_out/``.
"""

import os

# One BLAS thread unless the caller chose otherwise.  The matrices here are
# small, and on a small shared machine BLAS threads add more spread between
# runs than they save; the environment record states the count used.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import envinfo
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but not reported to the gate.  Raw times follow the
# machine's drift, which `wall_ref` divides out.  Quality repeats exactly for
# a seed but varies between seeds, and parse failures are usually zero.
TIMING = {"wall_s": "s", "ops_per_s": "1/s", "ref_s": "s"}
QUALITY = {"dev_f1": "share", "infonce_final": "nats", "parse_fail_rate": "share"}


def _import_exrank():
    src = ROOT / "src"
    if not (src / "exrank" / "__init__.py").is_file():
        sys.exit(f"error: no exrank sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import exrank

    if Path(exrank.__file__).resolve().parent != (src / "exrank").resolve():
        sys.exit(f"error: imported exrank from {exrank.__file__}, not from {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["schedule", "sweep", "label"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class Run:
    """One timed call of the workload and the verdict of its checks."""

    def __init__(self, traced):
        self.traced = traced
        self.wall_s = None
        self.ref_s = None  # reference kernel time around an untraced run
        self.outcome = None
        self.calls = None
        self.problems = []

    @property
    def failed(self):
        return bool(self.problems)

    def record(self):
        out = {"traced": self.traced, "wall_s": self.wall_s, "ref_s": self.ref_s,
               "problems": self.problems}
        if self.outcome is not None:
            out.update(ops=self.outcome.ops, fingerprint=self.outcome.fingerprint)
        return out


def _run_once(workload, inputs, scratch, tracer=None):
    run = Run(traced=tracer is not None)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.run(inputs, workdir)
        else:
            with tracer:
                result = workload.run(inputs, workdir)
        run.wall_s = time.perf_counter() - t0
        run.outcome = workload.check(inputs, result, workdir)
        run.problems += run.outcome.problems
    except Exception:  # a failing run is counted, reported, and the loop goes on
        run.problems.append("raised:\n" + traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None and run.wall_s is not None:
        run.calls = tracer.summary()
        expected = workload.expected_calls(inputs)
        for layer in tracing.LAYERS:
            if layer == "vocab.encode":
                continue  # depends on generated lengths; no closed form
            got = run.calls[f"{layer}.calls"]
            if got != expected.get(layer, 0):
                run.problems.append(
                    f"{layer}: traced {got} calls, expected exactly {expected.get(layer, 0)}"
                )
    return run


def _measure(workload, args, scratch):
    setup_s = []
    for _ in range(workload.setups):
        setup_dir = Path(tempfile.mkdtemp(dir=scratch))
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, setup_dir)
        setup_s.append(time.perf_counter() - t0)

    runs, tracer = [], None
    before = None if args.trace else reference.reference_s()
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        runs.append(_run_once(workload, inputs, scratch))
        if before is not None:
            after = reference.reference_s()
            runs[-1].ref_s = (before + after) / 2
            before = after
        if args.trace:
            tracer = tracing.Tracer()
            runs.append(_run_once(workload, inputs, scratch, tracer))

    first = next((r.outcome.fingerprint for r in runs if r.outcome), None)
    for r in runs:
        if r.outcome and r.outcome.fingerprint != first:
            r.problems.append(
                f"fingerprint {r.outcome.fingerprint} differs from the first run's {first}"
            )
    traced = [r for r in runs if r.traced and r.calls]
    for r in traced[1:]:
        counts = {k: v for k, v in r.calls.items() if k.endswith((".calls", "spans"))}
        if any(traced[0].calls[k] != v for k, v in counts.items()):
            r.problems.append("traced call counts differ from the first traced run")
    return setup_s, runs, tracer


def _timing(runs):
    timed = [r for r in runs if r.wall_s is not None and r.ref_s is not None]
    ok = [r for r in timed if not r.failed]
    total = sum(r.wall_s for r in ok)
    return {
        "wall_ref": statistics.median(r.wall_s / r.ref_s for r in timed) if timed else 0.0,
        "wall_s": statistics.median(r.wall_s for r in timed) if timed else 0.0,
        "ops_per_s": sum(r.outcome.ops for r in ok) / total if total else 0.0,
        "ref_s": statistics.median(r.ref_s for r in timed) if timed else 0.0,
    }


def _per_layer(runs):
    traced = [r for r in runs if r.traced and r.calls]
    plain = [r.wall_s for r in runs if not r.traced and r.wall_s is not None]
    if not traced or not plain:
        return {name: 0.0 for name in tracing.PER_LAYER}
    out = {}
    for name in tracing.PER_LAYER:
        if name.endswith(".calls") or name == "trace.spans":
            out[name] = traced[0].calls[name]
        elif name in traced[0].calls:
            out[name] = statistics.median(r.calls[name] for r in traced)
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(plain)
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / statistics.median(plain)
    return out


def _quality(runs):
    ok = [r.outcome for r in runs if not r.failed]
    raised = sum(1 for r in runs if r.outcome is None)
    out = dict(ok[0].quality) if ok else {}
    outputs = sum(o.outputs for o in ok)
    if outputs or raised:
        out["parse_fail_rate"] = (
            (sum(o.parse_failures for o in ok) + raised) / (outputs + raised)
        )
    return {k: v for k, v in out.items() if v is not None}


def main(argv=None):
    args = _parse_args(argv)
    _import_exrank()
    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        setup_s, runs, tracer = _measure(workload, args, scratch)

    timing = {} if args.trace else _timing(runs)
    if args.trace:
        metrics, units = _per_layer(runs), tracing.unit_of
    else:
        metrics = {
            "wall_ref": timing.pop("wall_ref"),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END.get
    quality = _quality(runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = envinfo.environment(ROOT)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "config": workload.describe(),
        "environment": env, "setup_s": setup_s, "runs": [r.record() for r in runs],
        "timing": timing, "quality": quality, "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{args.workload}-spans.tsv")  # latest traced run only

    for r in runs:
        for problem in r.problems:
            print(f"CHECK FAILED ({'traced' if r.traced else 'untraced'} run): {problem}",
                  file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  {len(runs)} runs  "
          f"{len(setup_s)} set-ups  op = one {workload.unit}")
    print("environment " + json.dumps(env, default=str))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in timing.items():
        print(f"  {name:<40} {value:>14.6g} {TIMING[name]}  (raw, not gated)")
    for name, value in quality.items():
        print(f"  {name:<40} {value:>14.6g} {QUALITY[name]}  (quality, repeats per seed)")
    fingerprint = next((r.outcome.fingerprint for r in runs if r.outcome), None)
    print(f"  fingerprint {fingerprint}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
