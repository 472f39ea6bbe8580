"""msproots benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload expand_sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The load is one process, one thread, a closed loop: each op starts
when the previous one returns, and a pass runs every op of the workload
once from cold caches, as a CLI user finds them on every call.

`--seconds` is the measured time: a run makes whole passes for as long as
the next one fits, at least one. The host's speed drifts by up to 2x over
seconds to minutes, so a run reports medians over all of its passes.

With `--trace 0` the run times untraced passes and prints the end-to-end
metrics; one more pass under the tracer, outside the timed region, gives
the exact work counts. With `--trace 1` it runs untraced and traced passes
in alternating order and prints the per-layer metrics, and it runs the
workload's memory-probe ops under tracemalloc for the Python allocation
peak.

Every op's output is checked outside the timed region. The last line of
stdout is the result JSON; the line before it is the full record (host,
calibration, counts, op tail with its sample count, errors), which is also
written to `.bench_out/` together with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11
CALIBRATION_REPS = 5
TAIL_BEYOND = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("expand_sweep", "eval_stream", "verify_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the package, build the inputs, print the monotonic clock and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "msproots" / "__init__.py").is_file():
        print(f"error: no msproots package under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
        return 0
    return Run(WORKLOADS[args.workload], args).execute()


def calibrate():
    """Milliseconds for a fixed pure-Python loop; shows the host's fast and slow phases."""
    out = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        out.append(round((time.perf_counter() - t0) * 1000, 3))
    return out


def host_record():
    src = ROOT / "src" / "msproots"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": _commit(), "src_sha256": digest.hexdigest()}


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def setup_probe(workload, seed):
    """Seconds from spawning a fresh interpreter until it has imported msproots
    and built the workload's inputs, i.e. until it could start the first op."""
    import subprocess
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


class Run:
    def __init__(self, workload_cls, args):
        self.args = args
        self.wl = workload_cls(args.seed)
        self.passes = 0
        self.timed_s = 0.0  # op time of the timed passes so far
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def more_passes(self, min_passes=1, upcoming=1):
        """Whether `upcoming` more timed passes fit in --seconds, judged by the mean pass so far.

        After a failed op the run makes only its minimum passes: failing ops may take no time."""
        if self.passes < min_passes:
            return True
        mean_pass = self.timed_s / self.passes
        return not self.failed and self.timed_s + upcoming * mean_pass <= self.args.seconds

    def run_pass(self, tracer=None, between_ops=None, timed=True):
        """One pass from cold caches; returns ({op label: seconds}, {count name: value}).

        A workload with `cold_ops` also clears the caches before each op. between_ops(),
        if given, runs just before each op; both stay outside the timed region."""
        from workloads import cache_counts, clear_caches
        clear_caches()
        times, counts = {}, {}

        def add(more):
            for name, value in more.items():
                counts[name] = counts.get(name, 0) + value
        if tracer:
            tracer.begin_pass()
        with tracer or nullcontext():
            for op in self.wl.ops:
                if self.wl.cold_ops and times:
                    add(cache_counts())
                    clear_caches()
                if between_ops:
                    between_ops()
                label = self.wl.label(op)
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("op") if tracer else nullcontext():
                        result = self.wl.run(op)
                    raised = None
                except Exception as exc:  # an op that raises is a failed op; the pass goes on
                    raised = f"{label}: {type(exc).__name__}: {exc}"
                times[label] = time.perf_counter() - t0
                if timed:
                    self.timed_s += times[label]
                if raised:
                    self._fail([raised])
                    continue
                errors = self.wl.check(op, result)
                if errors:
                    self._fail(errors)
                add(self.wl.op_counts(result))
        add(cache_counts())
        if tracer:
            counts.update(tracer.pass_counts())
        self.passes += timed
        return times, counts

    def _fail(self, errors):
        self.failed += 1
        self.errors.extend(errors)
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)

    def execute(self) -> int:
        args = self.args
        record = {"workload": self.wl.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "host": host_record(),
                  "calibration_ms": {"before": calibrate()}}
        metrics = self.traced(record) if args.trace else self.untraced(record)
        record["passes"], record["timed_s"] = self.passes, self.timed_s
        for line in self.wl.deep_check():
            self._fail([line])
        record["calibration_ms"]["after"] = calibrate()
        record["attempted"], record["failed"] = self.attempted, self.failed
        record["error_rate"] = self.failed / max(1, self.attempted)
        record["errors"] = self.errors[:20]
        result = {"correct": self.failed == 0, "attempted": max(1, self.attempted),
                  "failed": self.failed, "metrics": metrics}
        OUT.mkdir(exist_ok=True)
        stem = f"{self.wl.name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
        print(json.dumps(record))
        print(json.dumps(result))
        return 0

    def untraced(self, record):
        import resource
        from tracer import Tracer
        setup_probe(self.wl.name, self.args.seed)  # compiles bytecode; not counted
        setups, samples, pass_walls = [], {}, []

        def probe_when_due():
            # Spread the probes evenly over the measured time, so they see the same host phases.
            if len(setups) < SETUP_PROBES and \
                    self.timed_s >= (len(setups) + 0.5) * self.args.seconds / SETUP_PROBES:
                setups.append(setup_probe(self.wl.name, self.args.seed))

        while self.more_passes():
            times, _ = self.run_pass(between_ops=probe_when_due)
            pass_walls.append(sum(times.values()))
            for label, t in times.items():
                samples.setdefault(label, []).append(t)
        while len(setups) < SETUP_PROBES:
            setups.append(setup_probe(self.wl.name, self.args.seed))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _, record["counts"] = self.run_pass(Tracer(), timed=False)  # exact work of one pass

        # A pass's total averages the host's speed over seconds; its median over
        # the run varied less between runs than a sum of per-op medians did.
        wall = statistics.median(pass_walls)
        ordered = sorted(t for v in samples.values() for t in v)
        n = len(ordered)
        tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
        record["op_tail"] = {"ms": ordered[tail_index] * 1000,
                             "percentile": round(100 * (tail_index + 1) / n, 2), "samples": n,
                             "beyond": n - 1 - tail_index}
        record["pass_s"] = [round(w, 6) for w in pass_walls]
        record["setup_s_samples"] = [round(s, 6) for s in setups]
        record["op_samples_ms"] = {k: [round(t * 1000, 3) for t in v] for k, v in samples.items()}
        values = {
            "wall_s": (wall, "s"),
            "ops_per_s": (len(samples) / wall, "1/s"),
            "op_p50_ms": (statistics.median(ordered) * 1000, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def traced(self, record):
        import tracemalloc
        from tracer import Tracer
        from workloads import clear_caches
        clear_caches()
        tracemalloc.start()
        for op in self.wl.memory_probe():
            self.wl.run(op)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

        tracer = Tracer()
        plain_walls, traced_walls, per_pass = [], [], []
        pair = 0
        while self.more_passes(min_passes=4, upcoming=2):
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                times, counts = self.run_pass(tracer if traced else None)
                if traced:
                    traced_walls.append(sum(times.values()))
                    per_pass.append((tracer.pass_self_s(), counts))
                else:
                    plain_walls.append(sum(times.values()))
            pair += 1
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{self.wl.name}-seed{self.args.seed}-spans.tsv.gz")
        counts = per_pass[0][1]
        record["counts"] = counts
        record["counts_repeat"] = all(c == counts for _, c in per_pass)

        def self_s(name):
            return statistics.median(s.get(name, 0.0) for s, _ in per_pass)

        def self_prefix(prefix):
            return statistics.median(sum(v for n, v in s.items() if n.startswith(prefix))
                                     for s, _ in per_pass)

        def ratio(num, den):
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        dp_lookups = counts["msp.dp_cache_hits"] + counts["msp.dp_cache_misses"]
        values = {
            "cyclotomic.readouts": (counts.get("cyclotomic.readouts", 0), "count"),
            "cyclotomic.readout_s": (self_s("cyclotomic.readout"), "s"),
            "cyclotomic.poly_cache_misses": (counts["cyclotomic.poly_cache_misses"], "count"),
            "msp.dp_calls": (counts.get("msp.dp_calls", 0), "count"),
            "msp.dp_states": (counts.get("msp.dp_states", 0), "count"),
            "msp.dp_s": (self_s("msp.dp"), "s"),
            "msp.dp_cache_hit_ratio": (counts["msp.dp_cache_hits"] / dp_lookups if dp_lookups else 0.0,
                                       "ratio"),
            "msp.naive_calls": (counts.get("msp.naive_calls", 0), "count"),
            "msp.naive_s": (self_s("msp.naive"), "s"),
            "groupdet.expand_s": (self_s("groupdet.expand"), "s"),
            "groupdet.accumulator_keys": (counts.get("groupdet.accumulator_keys", 0), "count"),
            "groupdet.terms": (counts.get("groupdet.terms", 0), "count"),
            "groupdet.survival_ratio": (ratio("groupdet.terms", "groupdet.accumulator_keys"), "ratio"),
            "groupdet.to_records_s": (self_s("groupdet.to_records"), "s"),
            "groupdet.relabel_s": (self_s("groupdet.relabel"), "s"),
            "groupdet.leibniz_s": (self_s("groupdet.leibniz"), "s"),
            "partitions.calls": (counts.get("partitions.calls", 0), "count"),
            "partitions.s": (self_prefix("partitions."), "s"),
        }
        for suite in ("theorems", "thm11", "thm12", "thm32", "branching", "conjecture"):
            values[f"verify.{suite}_self_s"] = (self_s(f"verify.{suite}"), "s")
        values.update({
            "verify.instances_checked": (counts.get("verify.instances_checked", 0), "count"),
            "verify.failures": (counts.get("verify.failures", 0), "count"),
            "cli.main_self_s": (self_s("cli.main"), "s"),
            "cli.output_bytes": (counts.get("cli.output_bytes", 0), "bytes"),
            "trace.overhead_ratio": (statistics.median(traced_walls) / statistics.median(plain_walls),
                                     "ratio"),
            "trace.tracemalloc_peak_mb": (peak_mb, "MB"),
        })
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
