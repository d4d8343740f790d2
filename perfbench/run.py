"""Checked benchmark of the infoalign CLI.

    python3 perfbench/run.py --workload recovery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One workload runs in this process: it generates its inputs from the seed
(set-up, timed, done four times over the run), then repeats rounds of CLI
commands, each followed by output checks, cycling through its input sets,
and stops at the end of the cycle nearest to --seconds. Before every
command it times a calibration kernel, by which the gated timings are
scaled to the host's speed (see README.md). With --trace 1 rounds
alternate between untraced and traced, and the traced ones report
per-layer self times and counts. `--workload all` runs every workload in a
fresh process of its own. The program is imported from src/ of the
checkout this file sits in; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import CheckFailed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 4

# (name, unit, better): gated end-to-end metrics; every workload reports each.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_rel", "ratio", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

# End-to-end metrics that only some workloads have: printed and recorded.
WORKLOAD_METRICS = {
    "setup_wall_s": "s",
    "pipeline_s": "s",
    "calibration_s": "s",
    "build_graph_s": "s",
    "walk_steps_per_s": "steps/s",
    "pretrain_mol_per_s": "molecule-epochs/s",
    "embed_mol_per_s": "molecules/s",
    "match_queries_per_s": "queries/s",
    "mi_bench_s": "s",
    "probe_auc": "AUC",
}

# (name, unit, better, source). A source is a key of the tracer's per-round
# totals, or "@attr" for a value the workload read from its outputs. A layer
# that does no work on a workload reads 0 there.
PER_LAYER = [
    ("molparse.parse_s", "s", "lower", "molparse.parse_s"),
    ("molparse.molecules", "count", "lower", "molparse.parse.calls"),
    ("fingerprint.morgan_s", "s", "lower", "fingerprint.morgan_s"),
    ("fingerprint.molecules", "count", "lower", "fingerprint.morgan.calls"),
    ("ctxgraph.tables_s", "s", "lower", "ctxgraph.tables_s"),
    ("ctxgraph.similarity_s", "s", "lower", "ctxgraph.similarity_s"),
    ("ctxgraph.similarity_pairs", "count", "lower", "ctxgraph.similarity_pairs"),
    ("ctxgraph.similarity_edges", "count", "lower", "ctxgraph.similarity_edges"),
    ("ctxgraph.finalize_s", "s", "lower", "ctxgraph.finalize_s"),
    ("ctxgraph.load_s", "s", "lower", "ctxgraph.load_s"),
    ("ctxgraph.save_s", "s", "lower", "ctxgraph.save_s"),
    ("ctxgraph.graph_bytes", "bytes", "lower", "@graph_bytes"),
    ("walker.walks_s", "s", "lower", "walker.walks_s"),
    ("walker.steps", "count", "higher", "walker.steps"),
    ("walker.truncated", "count", "lower", "walker.truncated"),
    ("model.encode_s", "s", "lower", "model.encode_s"),
    ("model.encode_calls", "count", "lower", "model.encode.calls"),
    ("model.encodes_per_mol_epoch", "ratio", "lower", "@encodes_per_mol_epoch"),
    ("model.decode_s", "s", "lower", "model.decode_s"),
    ("model.decode_calls", "count", "lower", "model.decode.calls"),
    ("model.loss_s", "s", "lower", "model.loss_s"),
    ("model.final_loss", "nats", "lower", "@final_loss"),
    ("diffcore.backward_s", "s", "lower", "diffcore.backward_s"),
    ("diffcore.backward_calls", "count", "lower", "diffcore.backward.calls"),
    ("diffcore.accumulate_s", "s", "lower", "diffcore.accumulate_s"),
    ("diffcore.adam_s", "s", "lower", "diffcore.adam_s"),
    ("diffcore.adam_steps", "count", "lower", "diffcore.adam.calls"),
    ("diffcore.checkpoint_save_s", "s", "lower", "diffcore.checkpoint_save_s"),
    ("diffcore.checkpoint_load_s", "s", "lower", "diffcore.checkpoint_load_s"),
    ("diffcore.checkpoint_bytes", "bytes", "lower", "@checkpoint_bytes"),
    ("evalkit.match_s", "s", "lower", "evalkit.match_s"),
    ("evalkit.probe_s", "s", "lower", "evalkit.probe_s"),
    ("mibounds.prop1_s", "s", "lower", "mibounds.prop1_s"),
    ("mibounds.entries", "count", "lower", "mibounds.entries"),
    ("synth.generate_s", "s", "lower", "synth.generate_s"),
    ("trace.overhead_s", "s", "lower", None),
]


# The calibration kernel: fixed work of the kinds the program does (dict and
# tuple churn in the interpreter, small numpy products), none of it the
# program's. It runs before every command. The shared host's speed moves by
# up to 1.7x over minutes; dividing each round's time by the kernel's time
# in that round cancels most of that.
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((32, 32)) / 8
_CAL_V = _CAL_RNG.standard_normal(32)


# The kernel's usual time on the reference host: `setup_s` is given in
# seconds at the host speed where one pass takes this long.
CAL_REF_S = 0.05


def calibrate():
    """Wall time of one pass of the calibration kernel (about 0.04 s)."""
    t0 = time.perf_counter()
    table = {}
    for i in range(90_000):
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    x = _CAL_V
    for _ in range(6000):
        x = np.tanh(_CAL_A @ x) + 0.1 * x
    return time.perf_counter() - t0


class Run:
    """Operation accounting: each CLI invocation and each check is one operation.

    Checks queued during a round run after its commands, so that they neither
    add to the program's memory peak nor wait on a later command's output.
    """

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rejected = []   # check disagreements
        self.errors = []     # commands that failed, checks that could not run
        self.samples = defaultdict(list)
        self.round_s = 0.0  # wall time of this round's commands
        self.last_trace = None
        self.between_s = 0.0  # garbage collection and calibration between commands
        self._queued = []

    def cli(self, argv):
        """Run one command in-process; returns its wall time, or None if it failed."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        traced = self.tracer is not None and self.tracer.installed
        before = self.tracer.snapshot() if traced else None
        # Start each command with no garbage from the last, as a fresh process
        # does, and time the calibration kernel right before it.
        t0 = time.perf_counter()
        gc.collect()
        self.sample("calibration_s", calibrate())
        self.between_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            rc = self.cli_main(argv)
        except Exception as exc:  # a crashing command is one failed operation
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        self.round_s += wall
        self.last_trace = self.tracer.delta(before) if traced else None
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited with {rc}")
            return None
        return wall

    def begin_round(self):
        self.samples = defaultdict(list)
        self.round_s = 0.0

    def sample(self, name, value):
        if value is not None:
            self.samples[name].append(value)

    def check(self, name, fn, *args):
        self._queued.append((name, fn, args))

    def run_checks(self):
        for name, fn, args in self._queued:
            self.attempted += 1
            try:
                fn(*args)
            except CheckFailed as exc:
                self.failed += 1
                self.rejected.append(f"{name}: {exc}")
            except Exception as exc:  # missing or malformed output
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self._queued = []


def load_program():
    src = ROOT / "src"
    if not (src / "infoalign" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import infoalign.cli

    if Path(infoalign.cli.__file__).resolve().parent != (src / "infoalign").resolve():
        raise SystemExit(f"perfbench: imported infoalign from {infoalign.cli.__file__}, not {src}")
    return infoalign.cli.main


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment(seed, steal):
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
        "host_steal_s": steal,
    }


def median(values):
    return float(statistics.median(values)) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def run_workload(args):
    cli_main = load_program()
    from tracer import Tracer

    steal0 = steal_s()
    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = Run(cli_main, tracer)
    setup_s, setup_cal, setup_traces = [], [], []
    rounds = []  # (traced, input set, pipeline seconds, samples, trace totals)
    peak_rss_mib = 0.0

    def timed_setup():
        """One set-up into a directory of its own; the inputs in use stay."""
        data = workload.data
        if tracer:
            tracer.install()
        before = tracer.snapshot() if tracer else None
        samples, run.samples = run.samples, defaultdict(list)
        t0, between0 = time.perf_counter(), run.between_s
        workload.setup(run, work / f"setup{len(setup_s)}")
        setup_s.append(time.perf_counter() - t0 - (run.between_s - between0))
        setup_cal.append(mean(run.samples["calibration_s"]))
        run.samples = samples
        if tracer:
            setup_traces.append(tracer.delta(before))
            tracer.uninstall()
        if data:
            workload.data = data

    try:
        timed_setup()
        # Runs end on a whole cycle: every dataset, untraced and traced alike,
        # is measured equally often, so medians of counts repeat exactly. A
        # traced run pairs untraced and traced rounds on the first dataset.
        datasets = workload.data[:1] if tracer else workload.data
        per_dataset = 2 if tracer else 1
        cycle = per_dataset * len(datasets)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            k = (len(rounds) // per_dataset) % len(datasets)
            dataset = datasets[k]
            out = work / f"round{len(rounds) % cycle}"
            out.mkdir(exist_ok=True)
            if traced:
                tracer.install()
            before = tracer.snapshot() if traced else None
            run.begin_round()
            workload.run_round(run, dataset, out)
            totals = tracer.delta(before) if traced else None
            if traced:
                tracer.uninstall()
            rounds.append((traced, k, run.round_s, dict(run.samples), totals))
            # The first cycle's checks wait until its peak memory is read,
            # so the peak is the program's alone, over every dataset.
            if len(rounds) == cycle:
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(rounds) >= cycle:
                run.run_checks()
            if len(rounds) % cycle:
                continue
            # Stop on the cycle boundary nearest to --seconds. The other
            # set-ups are spread over the run, between cycles, so that a
            # slow stretch of the host does not hit all of them.
            elapsed = time.perf_counter() - start
            done = elapsed * (1 + cycle / len(rounds) / 2) >= args.seconds
            while len(setup_s) < SETUPS and (
                    done or elapsed >= len(setup_s) * args.seconds / SETUPS):
                timed_setup()
            if done:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r[0]]
    traced_rounds = [r for r in rounds if r[0]]

    # Timings are means over the run's rounds, which cover whole cycles, so
    # every input set weighs the same. The host's slow stretches outlast a
    # round: a mean weighs a partly slow run by its share, where a median
    # snaps to one stretch. The gated figure divides each round's time by
    # the calibration kernel's mean time in that round.
    def plain_mean(name):
        return mean([v for r in plain for v in r[3].get(name, [])])

    pipeline_s = mean([r[2] for r in plain])
    e2e = {"setup_s": median([t * CAL_REF_S / c for t, c in zip(setup_s, setup_cal)]),
           "pipeline_rel": mean([r[2] / mean(r[3]["calibration_s"]) for r in plain]),
           "peak_rss_mib": peak_rss_mib}
    extras = {"setup_wall_s": median(setup_s), "pipeline_s": pipeline_s}
    extras.update({name: plain_mean(name) for name in WORKLOAD_METRICS
                   if any(name in r[3] for r in plain)})
    layers = {}
    if tracer:
        for name, _unit, _better, source in PER_LAYER:
            if source is None:
                continue
            if source.startswith("@"):
                layers[name] = float(getattr(workload, source[1:]))
            else:
                phase = setup_traces if name.startswith("synth.") else [r[4] for r in traced_rounds]
                layers[name] = median([t.get(source, 0) for t in phase])
        layers["trace.overhead_s"] = (median([r[2] for r in traced_rounds])
                                      - median([r[2] for r in plain]))
    return run, rounds, e2e, extras, layers, steal_s() - steal0


def report(args, run, rounds, e2e, extras, layers, steal):
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update(WORKLOAD_METRICS)
    units.update({name: unit for name, unit, _b, _s in PER_LAYER})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={len(rounds)} setups={SETUPS}")
    for name, value in [*e2e.items(), *extras.items(), *layers.items()]:
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    for msg in run.rejected + run.errors:
        print(f"  FAILED {msg}")
    correct = not run.rejected and not run.errors
    print(f"  operations attempted={run.attempted} failed={run.failed} correct={correct}")
    shown = layers if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "setups": SETUPS,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failures": run.rejected + run.errors,
        "rounds_detail": [{"traced": traced, "input_set": k, "pipeline_s": pipe,
                           "samples": samples}
                          for traced, k, pipe, samples, _totals in rounds],
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in [*e2e.items(), *extras.items(), *layers.items()]},
        "environment": environment(args.seed, steal),
    }
    records = ROOT / ".perfbench_runs"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {name: {"value": v, "unit": units[name]}
                                  for name, v in shown.items()}}))


def run_all(args):
    """Each workload in a fresh process; the last line sums their operations."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args)
    else:
        report(args, *run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
