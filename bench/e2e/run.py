#!/usr/bin/env python3
"""mel-e2e: the end-to-end and per-layer benchmark of mel++.

Builds its own Release binaries into build-bench/, runs each workload
repetition in a fresh process (bench/e2e/mel_e2e.cpp), checks every output,
and prints every metric by name with its unit. See README.md.

  run.py [--seed S] [--reps R] [--traced] [--out FILE [--append]]
      Every workload, R repetitions each (default 5), rotating the
      workload order between repetitions; --traced adds one per-layer pass
      per workload. --out writes the samples for `compare`; with --append
      the repetitions are added to FILE, so two checkouts can be run
      alternately one repetition at a time.
  run.py --workload NAME --seed S --seconds N --trace 0|1
      One workload for N seconds (at least three repetitions); the last
      line of stdout is one JSON object with the end-to-end metrics
      (--trace 0) or the per-layer metrics (--trace 1).
  run.py compare PARENT.json CHANGE.json
      Paired comparison of two --out files, metric by metric.
  run.py --write-pins
      Re-capture pins.json (seed 1) from the current code.

Exit status: 0 when every check passed, 1 when a check failed or a
comparison found a regression, 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
WORK = BUILD / "work"
BINARY = BUILD / "mel_e2e"
PINS = HERE / "pins.json"

WORKLOADS = ("nsr-rgg-t4", "ncl-rgg-t4", "sweep-rmat", "melcheck", "trace-replay")
MODELS = ("NSR", "RMA", "NCL", "MBP", "NSR-AGG", "RMA-FENCE", "NCL-NB",
          "NSR-HIER", "NCL-PERSIST", "RMA-PART")

# name -> (unit, better). Reported by every workload with tracing off.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# End-to-end metrics only one workload has: name -> (unit, better, workload,
# bound). They are parts of that workload's wall_s.
WORKLOAD_METRICS = {
    "schedules_per_s": ("1/s", "higher", "melcheck", 0.25),
    "validate_s": ("s", "lower", "trace-replay", 0.25),
    "replay_ingest_s": ("s", "lower", "trace-replay", 0.25),
    "reprice_s": ("s", "lower", "trace-replay", 0.25),
}


def _per_layer():
    m = {}

    def add(names, unit, better="lower"):
        for n in names:
            m[n] = (unit, better)

    add(["runtime.events"], "count")
    add(["runtime.ns_per_event", "runtime.event_loop_ns",
         "runtime.event_loop_self_ns"], "ns")
    add(["runtime.shard_speedup"], "ratio", "higher")
    for layer in ("p2p", "rma", "neighbor", "global_coll"):
        add([f"mpi.{layer}_ns"], "ns")
        add([f"mpi.{layer}_calls"], "count")
    add(["mpi.isends", "mpi.puts", "mpi.neighbor_colls"], "count")
    add(["mpi.bytes"], "B")
    add(["mpi.ns_per_message"], "ns")
    add(["mpi.probe_hit_ratio"], "ratio", "higher")
    add(["match.iterations"], "count")
    add(["match.serial_s"], "s")
    add(["match.sim_over_serial"], "ratio")
    add(["match.verify_s"], "s")
    for model in MODELS:
        add([f"match.{model}.wall_s"], "s")
        add([f"match.{model}.events"], "count")
    add([f"{app}.{model}.wall_s" for app in ("bfs", "color")
         for model in ("NSR", "NCL")], "s")
    add(["gen.s", "graph.distribute_s"], "s")
    add(["graph.edges"], "count")
    add(["ft.transport_ns"], "ns")
    add(["ft.transport_calls", "ft.retransmits", "ft.dropped", "ft.acks",
         "ft.dup_filtered", "ft.corrupt_detected", "ft.recoveries"], "count")
    add(["ft.first_copy_ratio"], "ratio", "higher")
    add(["ft.shrinks"], "count", "higher")
    add(["melcheck.baseline_s", "melcheck.s_per_schedule"], "s")
    add(["obs.record_overhead"], "ratio")
    add(["obs.record_ns"], "ns")
    add(["obs.record_calls"], "count")
    add(["obs.serialize_s"], "s")
    add(["obs.trace_mb"], "MB")
    add(["obs.scan_s"], "s")
    add(["obs.scan_mb_per_s"], "MB/s", "higher")
    add(["obs.dag_build_s"], "s")
    add(["obs.anchors", "obs.flows"], "count")
    add(["obs.fidelity_s", "obs.critical_s"], "s")
    add(["obs.validate_mb_per_s"], "MB/s", "higher")
    add(["obs.ingest_peak_rss_mb", "obs.validate_peak_rss_mb"], "MB")
    add(["trace_overhead"], "ratio")
    for name, (unit, better, _, _) in WORKLOAD_METRICS.items():
        m[name] = (unit, better)
    return m


# Per-layer metrics, from the traced pass. A workload that bypasses a layer
# reports 0 for it: the prediction there is no change.
PER_LAYER = _per_layer()

MIN_REPS = 3
PHASE_TOLERANCE = 0.05  # phases must cover the process wall time to 5%
RUN_DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


# -- Build -------------------------------------------------------------------

def build():
    """Configure (once) and build mel_e2e + melcheck; output to stderr."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mel_e2e",
                  "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    WORK.mkdir(parents=True, exist_ok=True)


# -- One repetition ------------------------------------------------------------

def run_process(args, deadline):
    cmd = [str(BINARY), *args, "--work", str(WORK)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"mel_e2e {' '.join(args)} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["process_s"] = elapsed
    return out


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else None


def run_rep(workload, seed, traced, pins, deadline):
    """One repetition (or the traced pass): one process per stage.

    trace-replay records its input in a set-up process first, so that the
    replay process's peak RSS is the ingest's own. Set-up and measured
    seconds add up over the stages; every other metric comes from the
    last stage, the one that runs the measured phase.
    """
    base = ["--workload", workload, "--seed", str(seed)]
    if traced:
        base.append("--traced")
    stages = [base + ["--record"]] if workload == "trace-replay" else []
    stages.append(base)
    rep = {"start": time.time(), "metrics": {}, "samples": {}, "ops": [],
           "coverage": []}
    for args in stages:
        out = run_process(args, deadline)
        for name, value in out["metrics"].items():
            if name == "setup_s":
                value += rep["metrics"].get(name, 0.0)
            rep["metrics"][name] = value
        for name, values in out["samples"].items():
            rep["samples"].setdefault(name, []).extend(values)
        rep["ops"].extend(out["ops"])
        rep["compiler"] = out["compiler"]
        phases = sum(out["phases"].values())
        coverage = phases / out["process_s"]
        rep["coverage"].append(coverage)
        ok = abs(1.0 - coverage) <= PHASE_TOLERANCE
        rep["ops"].append({
            "name": "phases", "ok": ok, "pin": {},
            "why": "" if ok else f"phases cover {coverage:.1%} of the process"})
    for name, values in rep["samples"].items():
        rep["metrics"][name] = statistics.median(values)
    unknown = set(rep["metrics"]) - set(END_TO_END) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"mel_e2e reported unknown metrics {sorted(unknown)}")
    for op in rep["ops"]:
        path = op["pin"].pop("sha256_of", None)
        if path is not None:
            op["pin"]["sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if pins is not None and seed == pins["seed"]:
        expected = pins["workloads"].get(workload, {})
        for op in rep["ops"]:
            want = expected.get(op["name"])
            if op["ok"] and want is not None and want != op["pin"]:
                op["ok"] = False
                op["why"] = f"pin mismatch: got {op['pin']}, pinned {want}"
    rep["ok"] = all(op["ok"] for op in rep["ops"])
    return rep


def failures(reps):
    return [(op["name"], op["why"]) for r in reps for op in r["ops"]
            if not op["ok"]]


def attempted(reps):
    return sum(len(r["ops"]) for r in reps)


# -- Statistics ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(reps, metric):
    """A metric's values over repetitions: every sample where a process
    takes several (wall_s, reprice_s), else one value per repetition."""
    if reps and metric in reps[0]["samples"]:
        return [v for r in reps for v in r["samples"][metric]]
    return [r["metrics"][metric] for r in reps]


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


# -- One workload (--workload) ---------------------------------------------------

def one_workload(args):
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    pins = load_pins()
    if args.trace:
        reps = [run_rep(args.workload, args.seed, True, pins, deadline)]
        metrics = {name: {"value": reps[0]["metrics"].get(name, 0.0),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        reps = []
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
            reps.append(run_rep(args.workload, args.seed, False, pins, deadline))
        good = [r for r in reps if r["ok"]] or reps
        metrics = {name: {"value": statistics.median(values(good, name)),
                          "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    failed = failures(reps)
    for name, why in failed:
        print(f"FAILED {args.workload} {name}: {why}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


# -- Full mode -------------------------------------------------------------------

def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fmt(value):
    return f"{value:.6g}"


def print_workload(name, result):
    reps = [r for r in result["reps"] if r["ok"]]
    print(f"\n== {name}: {len(reps)} good of {len(result['reps'])} reps")
    names = list(END_TO_END) + [m for m, spec in WORKLOAD_METRICS.items()
                                if spec[2] == name]
    for metric in names:
        unit = END_TO_END.get(metric, WORKLOAD_METRICS.get(metric))[0]
        pooled = values(reps, metric)
        if not pooled:
            continue
        q1, med, q3 = quartiles(pooled)
        line = (f"  {metric:<18} {fmt(med):>12} {unit:<5} "
                f"[{fmt(q1)}, {fmt(q3)}] n={len(pooled)}")
        tail = tail_percentile(pooled)
        if metric == "reprice_s" and tail is not None:
            line += f"  p{tail[0]:.1f}={fmt(tail[1])}"
        print(line)
    ops = result["attempted"]
    print(f"  {'fail_ratio':<18} {result['failed']}/{ops} failed/attempted")
    traced = result.get("traced")
    if traced:
        cover = ", ".join(f"{c:.1%}" for c in traced["coverage"])
        print(f"  traced pass (phases cover {cover} of process wall):")
        for metric, (unit, _) in PER_LAYER.items():
            value = traced["metrics"].get(metric, 0.0)
            if value:
                print(f"    {metric:<28} {fmt(value):>12} {unit}")
        for op in traced["ops"]:
            if op["name"].endswith(".threads"):
                print(f"    {op['name']}: {op['pin']}")


def full(args):
    build()
    pins = None if args.write_pins else load_pins()
    workloads = list(WORKLOADS)
    doc = None
    if args.append and args.out and Path(args.out).exists():
        doc = json.loads(Path(args.out).read_text())
        if doc["seed"] != args.seed:
            raise BenchError(f"{args.out} was run with seed {doc['seed']}")
    if doc is None:
        doc = {"schema": "mel.e2e/1", "seed": args.seed, "workloads": {}}
    doc["env"] = {"nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
                  "python": sys.version.split()[0]}
    results = {w: doc["workloads"].setdefault(
        w, {"reps": [], "attempted": 0, "failed": 0}) for w in workloads}

    def record(w, rep):
        failed = failures([rep])
        results[w]["attempted"] += len(rep["ops"])
        results[w]["failed"] += len(failed)
        doc["env"]["compiler"] = rep["compiler"]
        for name, why in failed:
            print(f"FAILED {w} {name}: {why}", file=sys.stderr)

    done = len(results[workloads[0]]["reps"])  # reps already in an --append file
    for i in range(done, done + args.reps):
        shift = i % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            rep = run_rep(w, args.seed, False, pins, time.monotonic() + 600)
            results[w]["reps"].append(rep)
            record(w, rep)
    if args.traced:
        for w in workloads:
            rep = run_rep(w, args.seed, True, pins, time.monotonic() + 600)
            results[w]["traced"] = rep
            record(w, rep)

    env = doc["env"]
    print(f"mel-e2e seed={args.seed} nproc={env['nproc']} "
          f"compiler={env.get('compiler')} git={env['git_sha']}")
    for w in workloads:
        print_workload(w, results[w])
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.write_pins:
        write_pins(results)
    return 1 if any(r["failed"] for r in results.values()) else 0


def write_pins(results):
    pins = {"seed": 1, "workloads": {}}
    for w, result in results.items():
        reps = result["reps"] + ([result["traced"]] if "traced" in result else [])
        ops = {op["name"]: op["pin"] for r in reps for op in r["ops"]
               if op["pin"]}
        pins["workloads"][w] = dict(sorted(ops.items()))
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")


# -- Compare ---------------------------------------------------------------------

def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(parent_path, change_path):
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    e2e_bounds = bounds()
    verdicts = []
    print(f"{'workload':<13} {'metric':<16} {'parent':>10} {'change':>10} "
          f"{'delta':>8} {'spread':>7} {'wins':>6}  verdict")
    for w in WORKLOADS:
        if w not in parent["workloads"] or w not in change["workloads"]:
            continue
        pw, cw = parent["workloads"][w], change["workloads"][w]
        p_reps = [r for r in pw["reps"] if r["ok"]]
        c_reps = [r for r in cw["reps"] if r["ok"]]
        metrics = [(m, b, e2e_bounds[m]) for m, (_, b) in END_TO_END.items()]
        metrics += [(m, spec[1], spec[3]) for m, spec in WORKLOAD_METRICS.items()
                    if spec[2] == w]
        for metric, better, bound in metrics:
            p = [r["metrics"][metric] for r in p_reps]
            c = [r["metrics"][metric] for r in c_reps]
            if not p or not c:
                continue
            verdict, row = judge(p, c, better, bound)
            verdicts.append(verdict)
            print(f"{w:<13} {metric:<16} {fmt(row['p_med']):>10} "
                  f"{fmt(row['c_med']):>10} {row['delta']:>+8.1%} "
                  f"{row['spread']:>7.1%} {row['wins']:>6}  {verdict}")
        p_ratio = f"{pw['failed']}/{pw['attempted']}"
        c_ratio = f"{cw['failed']}/{cw['attempted']}"
        fail_verdict = "worse" if cw["failed"] > pw["failed"] else "same"
        verdicts.append(fail_verdict)
        print(f"{w:<13} {'fail_ratio':<16} {p_ratio:>10} {c_ratio:>10} "
              f"{'':>8} {'':>7} {'':>6}  {fail_verdict}")
        order = [p["start"] < c["start"] for p, c in zip(pw["reps"], cw["reps"])]
        if order and (all(order) or not any(order)):
            print(f"{w:<13} note: pairs did not alternate; every pair ran "
                  f"{'parent' if order[0] else 'change'} first")
    bad = sum(v in ("worse", "unresolved") for v in verdicts)
    print(f"\n{bad} metric(s) worse or unresolved")
    return 1 if bad else 0


def judge(p, c, better, bound):
    """A gain needs >= 10 pairs, >= 9/10 wins and a median gap wider than
    the parent's interquartile range; anything else is held against the
    bound, or unresolved when the parent's own spread is wider than the
    bound and the change does not beat every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(p, c))
    wins = sum(sign * (cv - pv) < 0 for pv, cv in pairs)
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    spread = (p_q3 - p_q1) / p_med
    delta = (c_med - p_med) / p_med
    row = {"p_med": p_med, "c_med": c_med, "delta": delta, "spread": spread,
           "wins": f"{wins}/{len(pairs)}"}
    gap_wide = abs(c_med - p_med) > p_q3 - p_q1
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap_wide
            and sign * delta < 0):
        return "better", row
    all_better = all(sign * (cv - pv) < 0 for cv in c for pv in p)
    if spread > bound and not all_better:
        return "unresolved", row
    if sign * delta > bound:
        return "worse", row
    return "same", row


# -- Main ------------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)
    if args.reps < 0:
        ap.error("--reps must be >= 0")
    if args.write_pins:
        args.seed, args.reps, args.traced = 1, 1, True
    try:
        return one_workload(args) if args.workload else full(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
