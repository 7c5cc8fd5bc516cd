"""gielab benchmark runner.

    python3 bench/run.py --workload lemma-sweep --seed 1 --seconds 30 --trace 0

Single process, single thread, closed loop: the next verdict is requested
only when the previous one is in.  Inputs are generated from --seed (see
workloads.py); every verdict is checked against a known answer computed
here.  With --trace 0 the end-to-end metrics of BENCHMARK.json are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported.  Human-readable lines come first; the
last line of stdout is one JSON object.  Detailed results, the
deterministic counters and the spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Claims tuned on other seeds must also hold on this one.
HELD_OUT_SEED = 90210
SETUP_SAMPLES_PER_PASS = 2
# The host's speed drifts (see README, "Timing").  A reference loop timed
# between verdicts measures it; REFERENCE_NOMINAL_S is the loop's time at
# the reference speed.  Changing either constant rescales every timing.
REFERENCE_ITERATIONS = 400
REFERENCE_NOMINAL_S = 0.0023
MIN_PASSES = 2
# ROADMAP item 1: per-stage self times must add up to the traced wall
# time within 10%.
SELF_TIME_TOLERANCE = 0.10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetupTimer:
    """Times fresh interpreters importing gielab and gielab.cli, in
    reference-speed seconds like every other timing.

    The first start, which compiles the bytecode, is not measured.  Samples
    are taken between passes, so they spread over the whole run."""

    def __init__(self):
        self.cmd = [sys.executable, "-c", "import gielab, gielab.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples, self.raw = [], []
        self._start()

    def _start(self):
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def sample(self):
        before = time_reference()
        t0 = perf_counter()
        self._start()
        elapsed = perf_counter() - t0
        speed = speed_factor(before, time_reference())
        self.raw.append(elapsed)
        self.samples.append(elapsed * speed)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def reference_loop():
    """Fixed pure-Python work of the kind gielab does: exact rational
    arithmetic and dict updates."""
    acc, x = {}, Fraction(3, 7)
    for i in range(REFERENCE_ITERATIONS):
        x = x * Fraction(i % 13 + 1, i % 11 + 2) + Fraction(1, i % 5 + 1)
        x = Fraction(x.numerator % 10007, x.denominator % 10007 + 1)
        acc[i % 97] = acc.get(i % 97, 0) + x
    return acc


def time_reference():
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def speed_factor(before, after):
    """Host speed relative to the reference, from the reference-loop times
    just before and just after a measured interval."""
    return 2 * REFERENCE_NOMINAL_S / (before + after)


@dataclass
class Pass:
    """Timings of one run of every operation; speed[i] is the speed factor
    around operation i."""
    latencies: list
    speed: list

    @property
    def normalized(self):
        """Latencies in reference-speed seconds."""
        return [t * f for t, f in zip(self.latencies, self.speed)]


def run_pass(ops, tracer=None):
    """Run every operation once, timing the reference loop between them.
    Returns (Pass, observations); checking happens afterwards."""
    from workloads import Raised
    latencies, refs, observations = [], [time_reference()], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            obs = op.run()
        except (Exception, SystemExit) as exc:  # counted as a wrong verdict
            obs = Raised(exc)
        latencies.append(perf_counter() - t0)
        observations.append(obs)
        refs.append(time_reference())
    speed = [speed_factor(a, b) for a, b in zip(refs, refs[1:])]
    return Pass(latencies, speed), observations


def check_pass(ops, observations):
    """Wrong verdicts as dicts {index, op, reason, known_defect}."""
    wrong = []
    for i, (op, obs) in enumerate(zip(ops, observations)):
        verdict = op.check(obs)
        if verdict is not None:
            reason, known = verdict
            wrong.append({"index": i, "op": op.label, "reason": reason,
                          "known_defect": known})
    return wrong


def is_timing(name):
    return name.endswith((".s", "_s")) or name == "trace.coverage"


def per_layer_values(stats, counters):
    """Flat {metric name: value} from span statistics and counters."""
    values = dict(counters)
    for name, st in stats.items():
        for key, v in st.items():
            values[f"{name}.{key}"] = v
    aliases = {
        "gie.grassmann_pullback.build_s": "gie.grassmann_pullback.s",
        "gie.grassmann_pullback.rank_s":
            "gie.GrassmannPullback.independent_differential_count.s",
        "emt.verify_equivalence.exact_s": "emt.verify_equivalence:exact.s",
        "emt.verify_equivalence.numeric_s": "emt.verify_equivalence:numeric.s",
    }
    for alias, key in aliases.items():
        values[alias] = values.get(key, 0)
    calls = values.get("linalg.SparseEchelon.insert.calls", 0)
    values["linalg.SparseEchelon.insert.kept_ratio"] = (
        values.get("linalg.SparseEchelon.insert.kept", 0) / calls if calls else 0.0)
    return values


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gielab" / "__init__.py").is_file():
        print(f"bench: no gielab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import gielab
    if Path(gielab.__file__).resolve().parent != SRC / "gielab":
        print(f"bench: imported gielab from {gielab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    self_test_failures = workloads.self_test()
    setup = None if args.trace else SetupTimer()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        result = measure(ops, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = result["wrong"]
    unexpected = [w for w in wrong if w["known_defect"] is None]
    notes = []
    correct = not self_test_failures and not unexpected
    if args.trace:
        correct = correct and result["counters_stable"] and result["self_time_ok"]
        if not result["counters_stable"]:
            notes.append("counters differ between traced passes")
        if not result["self_time_ok"]:
            notes.append("self times do not add up to the traced wall time")
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup.samples))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    # Each verdict of the workload is one operation; the passes repeat
    # them for timing.  A verdict that is wrong in any pass has failed.
    attempted = len(ops)
    failed = len({w["index"] for w in wrong})

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes of {len(ops)} verdicts")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<58} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} verdicts)")
    for note in result["notes"] + notes:
        print(f"  note: {note}")
    seen = set()
    for w in wrong:
        key = (w["op"], w["reason"])
        if key not in seen:
            seen.add(key)
            kind = f"known defect: {w['known_defect']}" if w["known_defect"] else "WRONG"
            print(f"  {kind}: {w['op']}: {w['reason']}")
    for failure in self_test_failures:
        print(f"  checker self-test failed: {failure}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    detail = {"environment": env, "workload": args.workload, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "wrong_verdicts": wrong,
              "checker_self_test_failures": self_test_failures,
              **result["detail"]}
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        Path(f"{stem}.counters.json").write_text(result["counters_json"])
        # one spans file per workload, overwritten: it is large
        with open(OUT / f"{args.workload}.spans.tsv", "w") as fh:
            fh.write("name\tparent\top\tstart\tend\n")
            for span in result["spans"]:
                fh.write("\t".join(map(str, span)) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def verdict_medians(passes):
    """Each verdict's median reference-speed latency over the passes."""
    return [statistics.median(col) for col in zip(*(p.normalized for p in passes))]


def traced_values(run, tracer):
    """Per-layer values of one traced pass, its counters as JSON text, and
    how far its self times miss its pass time (a fraction)."""
    stats, top = tracer.summary(run.speed)
    values = per_layer_values(stats, tracer.counters)
    counters = {k: v for k, v in values.items() if not is_timing(k)}
    pass_s = sum(run.normalized)
    values["trace.coverage"] = top / pass_s
    self_sum = sum(st["self_s"] for st in stats.values())
    return (values, json.dumps(counters, sort_keys=True, indent=1) + "\n",
            abs(self_sum - pass_s) / pass_s)


def measure(ops, args, setup):
    """Run passes until --seconds have elapsed; returns metrics and detail.
    Timings are in reference-speed seconds (see README, "Timing")."""
    from tracer import Tracer
    deadline = perf_counter() + args.seconds
    untraced, traced, per_pass, counters_json, gaps = [], [], [], [], []
    wrong = []
    while True:
        run, obs = run_pass(ops)
        untraced.append(run)
        wrong.extend(check_pass(ops, obs))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                run, obs = run_pass(ops, tracer)
            traced.append(run)
            wrong.extend(check_pass(ops, obs))
            values, counters, gap = traced_values(run, tracer)
            per_pass.append(values)
            counters_json.append(counters)
            gaps.append(gap)
        else:
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setup.sample()
        if len(untraced) >= MIN_PASSES and perf_counter() >= deadline:
            break
    per_verdict = verdict_medians(untraced)
    wall_s = sum(per_verdict)
    raw_wall_s = statistics.median(sum(p.latencies) for p in untraced)
    result = {"passes": len(untraced) + len(traced),
              "wrong": wrong, "notes": [],
              "detail": {"ops": [op.label for op in ops],
                         "untraced_latencies_s": [p.latencies for p in untraced],
                         "untraced_speed": [p.speed for p in untraced]}}
    result["notes"].append(
        f"median pass time {raw_wall_s:.4f} s by the wall clock, host speed "
        f"{statistics.median(f for p in untraced for f in p.speed):.3f} of reference")
    if not args.trace:
        result["end_to_end"] = {
            "wall_s": wall_s,
            "verdicts_per_s": len(ops) / wall_s,
            "verdict_p50_s": statistics.median(per_verdict),
            "verdict_p90_s": statistics.quantiles(per_verdict, n=10,
                                                  method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["notes"].append(
            f"{len(per_verdict)} verdict latencies, each the median of "
            f"{len(untraced)} passes; setup_s is the median of "
            f"{len(setup.samples)} interpreter starts, "
            f"{statistics.median(setup.raw):.4f} s by the wall clock")
        result["detail"]["setup_samples_s"] = setup.samples
        result["detail"]["setup_raw_samples_s"] = setup.raw
        return result

    per_layer = dict(per_pass[0])
    for key in per_layer:
        if is_timing(key):
            per_layer[key] = statistics.median(p.get(key, 0) for p in per_pass)
    traced_s = sum(verdict_medians(traced))
    per_layer["trace.overhead_s"] = traced_s - wall_s
    result.update(
        per_layer=per_layer,
        counters_stable=len(set(counters_json)) == 1,
        counters_json=counters_json[0],
        self_time_ok=max(gaps) <= SELF_TIME_TOLERANCE,
        spans=tracer.spans())
    result["notes"].append(
        f"pass time traced {traced_s:.4f} s, untraced {wall_s:.4f} s; self "
        f"times miss each traced pass time by at most {max(gaps):.1%}")
    result["detail"].update(
        traced_latencies_s=[run.latencies for run in traced], per_layer=per_layer)
    return result


if __name__ == "__main__":
    sys.exit(main())
