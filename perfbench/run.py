"""emdiff benchmark: closed-loop workloads over ``runner.run_align`` and
``runner.run_oracle``.

    python3 perfbench/run.py --workload align-tiny --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; ``emdiff`` is imported from the
checkout's ``src/`` (never from an installed copy), so each checkout
measures its own code. One process runs one workload: it issues one command
after another until ``--seconds`` have passed and the current group of
commands is complete, in one thread, with BLAS and OpenMP pinned to one
thread and ``EMDIFF_THREADS`` unset.

``--trace 0`` measures the end-to-end metrics. The only instrumentation is a
probe on the few functions whose returns end an epoch, where the probe
samples the machine's speed; times are reported scaled to a reference speed
(see speed.py), with the raw wall times beside them in the text report.
Command 0 runs twice and both runs must write byte-identical output.

``--trace 1`` runs each command untraced and then traced and reports the
per-layer metrics of the traced runs, the traced/untraced wall-time ratio
(``trace.overhead``), and requires both runs to write identical output. Every
per-layer metric is reported on every workload: one whose layer does not run
there (or whose function is gone) reads 0 and is marked absent in the text
report. The spans are written once, at the end, to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark's own
tests: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

import os

# must precede the first numpy import, here and in every child process
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("EMDIFF_THREADS", None)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(ROOT))
from perfbench import checks, layers, speed, stats  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

# the return of one of these ends an epoch; the epoch began at the previous
# speed sample, unless that was the start. On the oracle an epoch is one
# table build or one TV check. Path enumeration, the longest step of a
# suite (about 1.7 s), is left out: with it in, the tail fell among the few
# longest steps, and its spread over ten seeds went from 0.08-0.13 to
# 0.11-0.25 in probes; without the table builds, the median fell at the
# fast edge of one group of TV checks and spread about twice as much
EPOCH_MARK = {"align": ("runner.evaluate_policy",),
              "oracle": ("softq.ExactSoftTables",
                         "oracle.resampled_next_state_tv")}
# returns at which machine speed is sampled (see speed.py)
SPEED_POINTS = {"align": ("runner.evaluate_policy",),
                "oracle": ("softq.ExactSoftTables",
                           "metrics.elbo_by_path_enumeration",
                           "oracle.resampled_next_state_tv")}

# phase shares of align measured when the ROADMAP was re-anchored
ROADMAP_SHARES = {"align-tiny": {"eval": 0.73},
                  "align-mixture2d": {"search": 0.58, "eval": 0.22,
                                      "distill": 0.19}}

SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS, SETUP_BATCH_S = 5, 1.0, 100, 0.02


def import_emdiff():
    if not (SRC / "emdiff" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emdiff sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import emdiff
    if Path(emdiff.__file__).resolve().parent != (SRC / "emdiff").resolve():
        raise SystemExit(f"perfbench: emdiff imported from {emdiff.__file__}, "
                         f"not from {SRC}")
    modules = []
    for name in layers.MODULES:
        try:
            modules.append(importlib.import_module(f"emdiff.{name}"))
        except ModuleNotFoundError:
            print(f"note: emdiff.{name} is gone; its metrics are absent")
    return modules


def _git_commit():
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
    return "none"


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "emdiff").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "commit": _git_commit(),
            "src_sha256": digest.hexdigest()[:16],
            "threads": "BLAS/OpenMP 1, EMDIFF_THREADS unset"}


class Bench:
    """One workload run: the command loop, its checks and its metrics."""

    def __init__(self, workload, seed, seconds, modules):
        self.w, self.seed, self.seconds = workload, seed, seconds
        self.modules = modules
        self.runner = importlib.import_module("emdiff.runner")
        self.attempted = self.failed = 0
        self.times, self.raw_times, self.epochs_ms = [], [], []
        self.notes = {}
        self.run_dir = OUT / "runs" / f"{workload.name}-seed{seed}"
        self.timeline = None
        self.probes = {kind: tr.Tracer(only=set(points), hooks={
            p: lambda args, result, counters, p=p: self.timeline.mark(p)
            for p in points}) for kind, points in SPEED_POINTS.items()}

    def execute(self, cmd, tracer=None):
        """Runs one command, under ``tracer`` if given, else under the
        speed probe. Returns (raw seconds, output bytes) or None if it
        failed; a probed run leaves its speed samples in ``timeline``."""
        self.attempted += 1
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.timeline = None if tracer else speed.Timeline()
        tracer = tracer or self.probes[cmd.kind]
        tracer.reset()
        try:
            with tracer.install(self.modules):
                start = time.perf_counter()
                if self.timeline:
                    self.timeline.mark("start")
                if cmd.kind == "align":
                    self.runner.run_align(cmd.cfg, str(self.run_dir),
                                          variant=cmd.variant)
                else:
                    self.runner.run_oracle(cmd.cfg, str(self.run_dir))
                if self.timeline:
                    self.timeline.mark("end")
                    elapsed = self.timeline.total()[0]
                else:
                    elapsed = time.perf_counter() - start
            if cmd.kind == "align":
                raw = checks.check_align_dir(self.run_dir, cmd.cfg["epochs"],
                                             cmd.elbo_kind)
            else:
                raw = checks.check_oracle_dir(self.run_dir)
        except checks.CheckFailed as err:
            return self._fail(cmd, f"output check: {err}")
        except Exception:   # the command itself raised: count it, go on
            return self._fail(cmd, traceback.format_exc())
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        return elapsed, raw

    def _fail(self, cmd, why):
        self.failed += 1
        print(f"FAIL {cmd.label}: {why}", file=sys.stderr)
        return None

    def _same(self, cmd, a, b, what):
        """Whether two results of ``cmd`` both exist and wrote identical
        output; a difference counts as a failure."""
        if a is None or b is None:
            return False
        if a[1] != b[1]:
            self._fail(cmd, f"{what}: outputs differ between two runs")
            return False
        return True

    def indices(self, start_time):
        """Command indices until time is up, on whole groups (cycles); the
        first group and the workload's ``min_commands`` always run."""
        j, first = 0, max(self.w.cycle, self.w.min_commands)
        while j < first or j % self.w.cycle \
                or time.perf_counter() - start_time < self.seconds:
            yield j
            j += 1

    def record(self, cmd, result):
        """Keeps the timings of a probed command that succeeded."""
        if result is None:
            return
        norm = self.timeline.total()[1]
        self.raw_times.append(result[0])
        self.times.append(norm)
        self.epochs_ms += [1e3 * s for s in
                           self.timeline.closing(EPOCH_MARK[cmd.kind])]
        print(f"cmd {self.attempted:3d} {cmd.label:40s} {norm:8.3f} s "
              f"({result[0]:.3f} s wall)")

    # -- trace 0 ---------------------------------------------------------

    def measure_setup(self, cmd):
        """Normalised and raw seconds per ``runner.Setup`` call, one value
        per batch of calls lasting at least SETUP_BATCH_S."""
        cfg = self.runner.resolve_config(cmd.cfg)
        norm, raw, spent = [], [], 0.0
        while len(norm) < SETUP_REPS or (spent < SETUP_MIN_S
                                         and len(norm) < SETUP_MAX_REPS):
            tl = speed.Timeline()
            tl.mark()
            calls, t0 = 0, time.perf_counter()
            while calls == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
                self.runner.Setup(cfg)
                calls += 1
            tl.mark()
            (_, r, n), = tl.intervals()
            spent += r
            raw.append(r / calls)
            norm.append(n / calls)
        return norm, raw

    def run_untraced(self):
        start = time.perf_counter()
        values = {}
        first = self.w.command(self.seed, 0)
        try:
            setup, setup_raw = self.measure_setup(first)
            values["setup_s"] = statistics.median(setup)
            self.notes["setup_s"] = (f"median of {len(setup)} set-ups "
                                     f"({statistics.median(setup_raw):.4g} s "
                                     f"wall)")
        except Exception:
            self.attempted += 1
            self._fail(first, "setup: " + traceback.format_exc())
        for j in self.indices(start):
            cmd = self.w.command(self.seed, j)
            result = self.execute(cmd)
            self.record(cmd, result)
            if j == 0:
                # determinism: the same command again, byte-identical output
                again = self.execute(cmd)
                self.record(cmd, again)
                if self._same(cmd, result, again, "repeat of command 0"):
                    print("    repeat of command 0: output byte-identical")
        if self.times:
            values["run_s"] = statistics.median(self.times)
            self.notes["run_s"] = (f"median of {len(self.times)} commands "
                                   f"({statistics.median(self.raw_times):.4g}"
                                   f" s wall)")
        if self.epochs_ms:
            values["epoch_ms.p50"] = statistics.median(self.epochs_ms)
            values["epoch_ms.tail"], pct = stats.tail(self.epochs_ms)
            top, top_pct = stats.highest_tail(self.epochs_ms)
            self.notes["epoch_ms.tail"] = (
                f"p{pct:.1f} of {len(self.epochs_ms)} epochs; "
                f"p{top_pct:.1f} (ten beyond) {top:.4g} ms")
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        missing = [name for name, _ in END_TO_END if name not in values]
        if missing:     # only when every command (or the set-up) failed
            raise SystemExit(f"perfbench: nothing measured for "
                             f"{', '.join(missing)}")
        return {name: (values[name], unit) for name, unit in END_TO_END}

    # -- trace 1 ---------------------------------------------------------

    def run_traced(self):
        start = time.perf_counter()
        full = tr.Tracer(hooks=layers.HOOKS)
        per_cmd, spans = [], []
        for j in self.indices(start):
            cmd = self.w.command(self.seed, j)
            plain = self.execute(cmd)
            self.record(cmd, plain)
            traced = self.execute(cmd, full)
            if not self._same(cmd, plain, traced, "traced run"):
                continue
            per_cmd.append(layers.command_metrics(full.spans, full.counters,
                                                  full.wrapped, full.broken))
            per_cmd[-1]["trace.overhead"] = traced[0] / plain[0]
            spans.append({"command": cmd.label, "spans": list(full.spans)})
        self.write_spans(spans)
        if not per_cmd:
            raise SystemExit("perfbench: no command completed a traced run")
        # every metric is reported; one whose layer does not run in this
        # workload, or whose function the program no longer has, reads 0
        metrics = {}
        for name, unit in layers.metric_names():
            vals = [m[name] for m in per_cmd if name in m]
            metrics[name] = (statistics.fmean(vals) if vals else 0.0, unit)
            if not vals:
                self.notes[name] = "absent, reported as 0"
        return metrics

    def write_spans(self, spans):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.w.name}-seed{self.seed}.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "commands": spans}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")


def report(bench, metrics, trace, env):
    w = bench.w
    print(f"\n{w.name} (seed {bench.seed}, {'traced' if trace else 'untraced'}"
          f", {bench.attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} "
              f"{bench.notes.get(name, '')}")
    frac = bench.failed / max(bench.attempted, 1)
    print(f"  {'failed_frac':40s} {frac:14.6g} share  "
          f"{bench.failed} of {bench.attempted} commands")
    if trace:
        base = ROADMAP_SHARES.get(w.name, {})
        shares = [f"{p} {metrics[f'phase.{p}.share'][0]:.2f}"
                  + (f" (ROADMAP {base[p]:.2f})" if p in base else "")
                  for p in layers.PHASES if f"phase.{p}.share" in metrics]
        print("  phase shares of the command: " + ", ".join(shares))
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-seed{bench.seed}-trace{trace}.json",
              "w") as fh:
        json.dump({"workload": w.name, "seed": bench.seed, "env": env,
                   "notes": bench.notes, **result}, fh, indent=1)
    return result


def run_all(args):
    """Every workload, each in its own process (so peak memory is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            raise SystemExit(f"perfbench: workload {name} exited "
                             f"{proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    modules = import_emdiff()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, modules)
    metrics = bench.run_traced() if args.trace else bench.run_untraced()
    result = report(bench, metrics, args.trace, env)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
