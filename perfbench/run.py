#!/usr/bin/env python3
"""Seeded benchmark for omkit, driven the way users drive it: `om` commands.

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every metric, every workload
    python3 perfbench/run.py --baseline --seed 1            # the ROADMAP baseline table

Run from the root of a checkout.  Each workload is a single-client closed
loop: one `om` subprocess at a time, each waited for before the next.
The timed phase repeats whole rounds of the workload's commands until
--seconds have passed (and, on small-files, at least 100 commands ran).
Every output is checked against the oracles in oracle.py.

--trace 0 prints the end-to-end metrics.  --trace 1 is a separate run: it
runs each command of a round as a subprocess, in process untraced, and in
process with spans around every public omkit function, then prints the
per-layer metrics (per round) and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Host diagnostics (steal time, a reference
loop, wall beside CPU, a machine block) go to stderr and to
perfbench/out/records.jsonl; spans go to
perfbench/out/spans-<workload>-seed<n>.jsonl.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import host
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

E2E_UNITS = {
    "ops_per_s": "op/s", "cpu_per_op_ms": "ms", "cmd_wall_p50_s": "s", "cmd_cpu_p50_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


class SetupError(RuntimeError):
    pass


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def set_up(workload, seed, d: Path, om: host.Om):
    """Generate the seeded inputs, have the program produce the .hls files
    it must, and make one untimed warm-up call."""
    d.mkdir(parents=True)
    plan = workload.build(workloads.rng_for(workload.name, seed), d)
    for chi, hls in plan.produce:
        res = om.run(["convert", chi, "--to", "hls", "-o", hls])
        if res.code != 0:
            raise SetupError(f"om convert {chi} --to hls: exit {res.code}: {res.err.strip()}")
    res = om.run(plan.warmup.argv, plan.warmup.timeout)
    why = plan.warmup.failure(res.code, res.out, res.err, res.timed_out)
    if why:
        raise SetupError(f"warm-up om {' '.join(plan.warmup.argv)}: {why}")
    return plan


class Verifier:
    """Checks outcomes against the oracles after the timed phase, caching
    per distinct outcome because rounds repeat the same commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self._cache = {}

    def __call__(self, op, code, out, err, timed_out=False):
        key = (id(op), code, out, err, timed_out)
        if key not in self._cache:
            self._cache[key] = op.failure(code, out, err, timed_out)
        why = self._cache[key]
        self.attempted += op.weight
        if why:
            self.failed += op.weight
            if len(self.reasons) < 10:
                self.reasons.append(f"om {' '.join(op.argv)}: {why}")
        return why is None


# -------------------------------------------------------------- end to end

def run_e2e(workload, seed, seconds, om, run_dir):
    setup_times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        plan = set_up(workload, seed, run_dir / f"setup{k}", om)
        setup_times.append(perf_counter() - t0)

    results, rounds = [], 0
    ref_before = host.reference_loop()
    t0 = perf_counter()
    while True:
        for op in plan.ops:
            results.append((op, om.run(op.argv, op.timeout)))
        rounds += 1
        if perf_counter() - t0 >= seconds and rounds >= workload.min_rounds:
            break
    wall = perf_counter() - t0
    ref_after = host.reference_loop()
    # On Linux a child's max-RSS also counts its parent's at spawn time, so
    # the harness's own peak is kept to show it stays below the children's.
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verify = Verifier()
    for op, res in results:
        verify(op, res.code, res.out, res.err, res.timed_out)
    walls = [r.wall for _, r in results]
    cpus = [r.cpu for _, r in results]
    metrics = {
        "ops_per_s": (verify.attempted - verify.failed) / wall,
        "cpu_per_op_ms": 1000.0 * sum(cpus) / verify.attempted,
        "cmd_wall_p50_s": statistics.median(walls),
        "cmd_cpu_p50_s": statistics.median(cpus),
        "peak_rss_mb": max(r.maxrss_mb for _, r in results),
        "setup_s": statistics.median(setup_times),
    }
    diag = {"rounds": rounds, "commands": len(results), "timed_wall_s": wall,
            "child_cpu_s": sum(cpus), "setup_runs_s": setup_times,
            "reference_loop_s": [ref_before, ref_after], "harness_rss_mb": harness_rss_mb}
    # A p90 needs ten samples beyond it, which only small-files has.
    if len(results) >= 100:
        diag["cmd_wall_p90_s"] = p90(walls)
        diag["cmd_cpu_p90_s"] = p90(cpus)
    return verify, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, diag


# ------------------------------------------------------------------ traced

def _call_main(cli, argv):
    """omkit.cli.main(argv) in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0


def run_traced(workload, seed, seconds, om, run_dir):
    plan = set_up(workload, seed, run_dir / "setup", om)
    import omkit.cli

    cli = omkit.cli

    verify = Verifier()
    tracer = spans.Tracer()

    def traced(op, label):
        restore = spans.instrument(tracer)
        tracer.op = label
        try:
            code, out, err, wall = _call_main(cli, op.argv)
        finally:
            restore()
            tracer.op = None
        verify(op, code, out, err)
        return wall

    overhead_per_cmd, plain_total, traced_total, rounds = [], 0.0, 0.0, 0
    t0 = perf_counter()
    while True:
        for i, op in enumerate(plan.ops):
            sub = om.run(op.argv, op.timeout)
            verify(op, sub.code, sub.out, sub.err, sub.timed_out)
            # Alternate which in-process pass goes first, so warm caches
            # favour neither side of the overhead.
            if i % 2:
                traced_total += traced(op, f"r{rounds}.{i}")
            code, out, err, plain = _call_main(cli, op.argv)
            verify(op, code, out, err)
            if not i % 2:
                traced_total += traced(op, f"r{rounds}.{i}")
            plain_total += plain
            overhead_per_cmd.append(sub.wall - plain)
        rounds += 1
        if perf_counter() - t0 >= seconds:
            break

    probe_dir = run_dir / "probe"
    probe_dir.mkdir()
    probe, fm_rows = workloads.build_probe(workloads.rng_for("probe", seed), probe_dir)
    chi, hls = probe.produce[0]
    code, _, err, _ = _call_main(cli, ["convert", chi, "--to", "hls", "-o", hls])
    if code != 0:
        raise SetupError(f"probe: om convert {chi} --to hls: exit {code}: {err.strip()}")
    for i, op in enumerate(probe.ops):
        traced(op, f"probe.{i}")
    restore = spans.instrument(tracer)
    tracer.op = "probe.fm"
    try:
        fm = omkit.faces.fm_realizable_topes(omkit.VectorConfig(fm_rows))
    finally:
        restore()
    fm_op = workloads.Op(["<fm_realizable_topes>"], 0,
                         check=lambda out: int(out) == oracle.tope_count(fm_rows))
    verify(fm_op, 0, str(len(fm)), "")

    work = spans.span_metrics([s for s in tracer.spans if not spans.is_probe(s[5])],
                              tracer.counters[False])
    fixed = spans.span_metrics([s for s in tracer.spans if spans.is_probe(s[5])],
                               tracer.counters[True])
    metrics = {k: work[k] / rounds + fixed[k] for k in work}
    metrics.update(host.startup_probe(om))
    metrics["cli.process_overhead_s"] = statistics.median(overhead_per_cmd)
    metrics["cli.valid_ratio"] = metrics["cli.maps_valid"] / metrics["cli.maps_scanned"]
    metrics["trace.overhead_s"] = (traced_total - plain_total) / rounds
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    diag = {"rounds": rounds, "spans": len(tracer.spans),
            "traced_wall_s": traced_total / rounds, "untraced_wall_s": plain_total / rounds,
            "valid_ratio_base": f"{metrics['cli.maps_valid']:g} valid of "
                                f"{metrics['cli.maps_scanned']:g} scanned maps per round"}
    return verify, {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, diag


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.valid_ratio":
        return "ratio"
    if name == "formats.bytes_read":
        return "B"
    return "count"


# -------------------------------------------------------------------- main

def run_one(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    run_dir = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    om = host.Om(ROOT, run_dir)
    steal = host.StealMeter()
    t0 = perf_counter()
    try:
        fn = run_traced if trace else run_e2e
        verify, metrics, diag = fn(workload, seed, seconds, om, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "run_wall_s": perf_counter() - t0,
        "host": steal.read(), "machine": host.machine(seed), **diag,
        "attempted": verify.attempted, "failed": verify.failed,
        "failed_frac": f"{verify.failed}/{verify.attempted}", "failures": verify.reasons,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    report(record, metrics)
    return verify, metrics


def report(record, metrics):
    h, m = record["host"], record["machine"]
    steal = "n/a" if h["steal_s"] is None else f"{h['steal_s']:.2f} s ({100 * h['steal_frac']:.1f}%)"
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"run {record['run_wall_s']:.1f} s, host steal {steal}, failed {record['failed_frac']}",
          file=sys.stderr)
    print(f"# {m['cpu_model']}, nproc {m['nproc']}, Python {m['python']}, NumPy {m['numpy']}, "
          f"OpenBLAS {m['openblas']}", file=sys.stderr)
    if "reference_loop_s" in record:
        before, after = record["reference_loop_s"]
        print(f"# reference loop {before * 1e3:.1f} ms before, {after * 1e3:.1f} ms after; "
              f"timed {record['timed_wall_s']:.1f} s wall, {record['child_cpu_s']:.1f} s child CPU",
              file=sys.stderr)
    for k, (v, unit) in metrics.items():
        print(f"  {k:32s} {v:14.6g} {unit}", file=sys.stderr)
    for why in record["failures"]:
        print(f"  FAILED {why}", file=sys.stderr)


def baseline(seed):
    """The ROADMAP baseline table: five functions at n = 9, r = 3..5 on
    seeded full-rank rows with entries in [-5, 5], timed by the spans."""
    import omkit

    rng = workloads.rng_for("baseline", seed)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        for r in (3, 4, 5):
            m = omkit.from_vectors(oracle.random_rows(rng, 9, r, 5))
            tracer.op = f"r{r}"
            omkit.chirotope.check_chirotope(m)
            x = omkit.hyperline.from_chirotope(m)
            omkit.hyperline.check_hyperline(x)
            omkit.faces.covectors(m)
            if r == 3:
                omkit.faces.face_census(m)
    finally:
        restore()
    names = ("chirotope.check_chirotope", "hyperline.from_chirotope",
             "hyperline.check_hyperline", "faces.covectors", "faces.face_census")
    cell = {(s[2], s[5]): s[4] - s[3] for s in tracer.spans if s[1] is None and s[5]}
    lines = ["| operation | n=9 r=3 | n=9 r=4 | n=9 r=5 |", "|---|---|---|---|"]
    for name in names:
        vals = [cell.get((name, f"r{r}")) for r in (3, 4, 5)]
        shown = ["n/a" if v is None else f"{v:.2f} s" for v in vals]
        lines.append(f"| `{name.split('.')[1]}` | " + " | ".join(shown) + " |")
    print("\n".join(lines))
    print(json.dumps({f"{n}.r{r}": cell.get((n, f"r{r}")) for n in names for r in (3, 4, 5)}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="print the ROADMAP baseline table")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "omkit" / "__init__.py").is_file():
        print(f"error: no omkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # The harness imports omkit only for the FM oracle and the traced run.
    sys.path.insert(0, str(ROOT / "src"))
    if args.baseline:
        baseline(args.seed)
        return 0

    if args.workload == "all":
        return run_all(args)
    try:
        verify, metrics = run_one(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": verify.failed == 0, "attempted": verify.attempted,
                      "failed": verify.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in a fresh process of its own, so that no workload
    runs in a harness the previous one grew (a child's max-RSS includes
    its parent's at spawn time), then one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: failed {res['failed']}/{res['attempted']}")
        for k, m in res["metrics"].items():
            print(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
