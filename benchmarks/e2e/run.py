#!/usr/bin/env python3
"""End-to-end benchmark of ``psgl count``: file on disk -> count printed.

One workload, as the benchmark driver runs it (the last line printed is
the result object BENCHMARK.json describes)::

    python3 benchmarks/e2e/run.py --workload tri-rmat12 --seed 1 --seconds 30 --trace 0

Every workload, untraced then traced, with a table of every metric::

    python3 benchmarks/e2e/run.py [--seed 1] [--seconds 30] [--out FILE]
    python3 benchmarks/e2e/run.py --aa      # two sets of 3; compare against the bounds
    python3 benchmarks/e2e/run.py --smoke   # 256-vertex graphs, for the self-test

End-to-end numbers come from cold, untraced ``python -m repro count``
subprocesses; per-layer numbers from separate traced runs
(``layers.py``).  README.md says what each metric means and why the
timings are reported the way they are.

Standard library only, and nothing heavy: the measured children are
forked from this process (see README, "peak RSS").
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, count_argv, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 120
CALIBRATION_LOOPS = 300_000
#: Runs per side of ``--aa``: a bound is about the median of several.
AA_RUNS = 3
#: Units of the per-layer metrics that are counts, or ratios of counts:
#: they repeat exactly between runs of the same code on the same input.
EXACT_UNITS = ("count", "B", "cost", "ratio")


class Child:
    """One finished subprocess: how long, how much CPU and memory, and
    what it printed."""

    def __init__(self, argv, log, **env_extra):
        env = {**os.environ, **env_extra}
        # Children may leave bytecode behind, as a user's runs do.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        with open(log, "w+b") as out:
            start = time.perf_counter()
            # Its own process group, so a timeout also ends its workers.
            proc = subprocess.Popen(
                [sys.executable, *map(str, argv)], cwd=ROOT, env=env,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
            watchdog = threading.Timer(
                CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                # wait4, not Popen.wait: it returns the rusage of this
                # child and of every descendant it waited for.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            self.wall_s = time.perf_counter() - start
            out.seek(0)
            self.text = out.read().decode(errors="replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.fields = {}
        for line in self.text.splitlines():
            for sep in (" : ", "="):
                key, found, value = line.partition(sep)
                if found:
                    self.fields.setdefault(key.strip(), value.strip())
                    break

    def number(self, key):
        """A printed ``1,234`` / ``0.782s`` field as a number, else None."""
        text = self.fields.get(key, "").replace(",", "").rstrip("s")
        try:
            return float(text) if "." in text else int(text)
        except ValueError:
            return None

    def require(self, what):
        if self.code != 0:
            raise SystemExit(f"{what} failed (exit {self.code}):\n{self.text}")
        return self


def calibrate():
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_start": os.getloadavg()[0],
    }


class Run:
    """One workload at one seed: its inputs on disk and its oracle."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.edge_list = self.dir / "graph.txt"
        self.csrbin = self.dir / "graph.csrbin"
        self.logs = 0
        self.facts = machine_facts()
        self.oracle = None
        self.attempted = self.failed = 0
        self.calibration = []

    def prepare(self, with_csrbin):
        """Make the inputs (in helper processes) and learn the oracle."""
        w = self.workload
        made = Child(
            [HERE / "inputs.py", w.pattern, w.scale, self.seed, w.instances,
             self.edge_list], self.log()
        ).require("input generation")
        self.oracle = made.number("count")
        self.facts.update(edges=made.number("edges"), draw=made.number("draw"),
                          numpy=made.fields["numpy"], oracle=self.oracle)
        if with_csrbin:
            Child(["-m", "repro", "convert", self.edge_list, self.csrbin],
                  self.log()).require("psgl convert")
        # One untimed run first: it compiles the working tree's modules
        # into __pycache__, which every run of a user but the first finds
        # there (0.14 s of a 0.31 s start otherwise).
        self.count()

    def log(self):
        self.logs += 1
        return self.dir / f"child{self.logs}.log"

    def checked(self, child, count):
        """Count one attempt; it fails on a bad exit or a wrong count."""
        self.attempted += 1
        ok = child.code == 0 and count == self.oracle
        if not ok:
            self.failed += 1
            print(f"FAILED run: exit {child.code}, count {count}, oracle "
                  f"{self.oracle}\n{child.text}", file=sys.stderr)
        return ok

    def count(self):
        """One cold, untraced ``psgl count``."""
        child = Child(
            ["-m", "repro", *count_argv(self.workload, self.edge_list, self.csrbin)],
            self.log())
        self.checked(child, child.number("instances"))
        self.facts["kernel"] = child.fields.get("kernel")
        return child

    def baseline(self):
        """One single-thread baseline process: the same edge list counted
        ``baseline_repeat`` times; returns its wall seconds per count."""
        repeat = self.workload.baseline_repeat
        # Single-thread by definition: no BLAS worker threads either.
        child = Child([HERE / "baseline.py", self.workload.pattern,
                       self.edge_list, "--repeat", repeat], self.log(),
                      OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.checked(child, child.number("count"))
        return child.wall_s / repeat

    def rounds(self, seconds):
        """Yield round numbers while another round of the length seen
        so far still fits in ``seconds`` (one round at least), timing
        the calibration loop before each."""
        start = time.perf_counter()
        done = 0
        while done == 0 or (time.perf_counter() - start) * (1 + 1 / done) <= seconds:
            self.calibration.append(calibrate())
            yield done
            done += 1

    def close(self):
        self.facts["loadavg_end"] = os.getloadavg()[0]
        self.facts["calibration_s"] = self.calibration
        # Never hidden: a loaded box is labelled, not dropped.
        self.facts["noisy"] = max(
            self.facts["loadavg_start"], self.facts["loadavg_end"]
        ) > self.facts["nproc"]
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run, seconds):
    """Untraced cold CLI runs, each between two baseline runs."""
    pairs = []
    before = run.baseline()
    for _ in run.rounds(seconds):
        count = run.count()
        after = run.baseline()
        # Each run is set against the mean of the baseline runs on
        # either side of it: the machine's speed of that minute is in
        # both and cancels (README, "Noise").  A run that died has no time.
        if count.number("wall time") is not None:
            pairs.append((count, (before + after) / 2))
        before = after
    if not pairs:
        raise SystemExit("no psgl count run succeeded")
    counts, beside = zip(*pairs)
    setups = [c.wall_s - c.number("wall time") for c in counts]
    samples = {
        "wall_s": [c.wall_s for c in counts],
        "cpu_s": [c.cpu_s for c in counts],
        "setup_wall_s": setups,
        "baseline_count_s": list(beside),
        "cost_ratio": [c.wall_s / b for c, b in pairs],
        "cpu_ratio": [c.cpu_s / b for c, b in pairs],
        # Set-up in baseline counts, times what a baseline count takes
        # on the builder's box when calm: seconds at that speed.
        "setup_s": [s / b * run.workload.baseline_s
                    for s, b in zip(setups, beside)],
        "peak_rss_mb": [c.rss_mb for c in counts],
    }
    # Plain seconds are facts, not metrics: they follow the machine.
    run.facts.update({f"median_{name}": statistics.median(samples[name])
                      for name in ("wall_s", "cpu_s", "setup_wall_s")})
    metrics = {name: statistics.median(samples[name]) for name in
               ("cost_ratio", "cpu_ratio", "setup_s", "peak_rss_mb")}
    return metrics, samples


def per_layer(run, seconds, units):
    """Traced runs (layers.py), each next to an untraced one for the
    tracing overhead, a bare interpreter start and a baseline run."""
    traced, untraced, startups, baselines = [], [], [], []
    w = run.workload
    for done in run.rounds(seconds):
        startups.append(Child(["-m", "repro", "patterns"], run.log())
                        .require("psgl patterns").wall_s)
        baselines.append(run.baseline())
        untraced.append(run.count())
        child = Child(
            [HERE / "layers.py", f"{w.name}#{done}", w.pattern, run.edge_list,
             run.csrbin, w.source, w.backend, run.dir / "spans.json"],
            run.log())
        result = json.loads(child.text.splitlines()[-1]) if child.code == 0 else {}
        if run.checked(child, result.get("count")):
            del result["count"]
            traced.append(result)
    untraced = [c for c in untraced if c.number("wall time") is not None]
    if not traced or not untraced:
        raise SystemExit("no traced run, or no untraced one, succeeded")
    shutil.copy(run.dir / "spans.json", WORK / f"spans-{w.name}.json")
    metrics, exact = {}, True
    for name, first in traced[0].items():
        values = [t[name] for t in traced]
        if units.get(name) in EXACT_UNITS:
            # The same code on the same input repeats a count exactly.
            exact = exact and all(v == first for v in values)
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    if not exact:
        run.failed += 1
        print("FAILED: a count differed between traced runs", file=sys.stderr)
    engine = statistics.median(c.number("wall time") for c in untraced)
    metrics.update({
        "cli.startup_s": statistics.median(startups),
        "cli.wall_s": statistics.median(c.wall_s for c in untraced),
        "cli.cpu_s": statistics.median(c.cpu_s for c in untraced),
        "runtime.cpu_over_wall": statistics.median(
            c.cpu_s / c.wall_s for c in untraced),
        "obs.trace_overhead_ratio": metrics["bsp.engine.run_s"] / engine,
        "baseline.count_s": statistics.median(baselines),
        "baseline.count": run.oracle,
    })
    return metrics, {"traced": traced}


def measure(spec, workload, seed, seconds, trace):
    """The result object of one benchmark run, plus its raw samples."""
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if trace else "end_to_end"]}
    run = Run(workload, seed)
    try:
        run.prepare(with_csrbin=trace or workload.source == "csrbin")
        if trace:
            metrics, samples = per_layer(run, seconds, units)
        else:
            metrics, samples = end_to_end(run, seconds)
    finally:
        run.close()
    if set(units) != set(metrics):
        raise SystemExit(
            f"metrics measured and BENCHMARK.json differ: "
            f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, {"facts": run.facts, "samples": samples}


# ----------------------------------------------------------------------
# Every workload at once: the table a person reads, and the A/A check.
# ----------------------------------------------------------------------
def run_matrix(spec, workloads, seed, seconds, traces=(0, 1)):
    matrix = {}
    for workload in workloads:
        for trace in traces:
            print(f"... {workload.name} trace={trace}", file=sys.stderr)
            result, detail = measure(spec, workload, seed, seconds, trace)
            matrix[f"{workload.name}/trace{trace}"] = {**result, **detail}
    print_matrix(matrix)
    return matrix


def print_matrix(matrix):
    for key, entry in matrix.items():
        facts = entry["facts"]
        print(f"\n== {key}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}"
              f"{'  NOISY (load average above nproc)' if facts['noisy'] else ''}")
        for name, metric in entry["metrics"].items():
            line = f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}"
            raw = entry["samples"].get(name)
            if raw and len(raw) > 1:
                q1, _, q3 = statistics.quantiles(raw, n=4)
                line += f"   (n={len(raw)}, quartiles {q1:.4g} .. {q3:.4g})"
            print(line)
        print("  facts: " + ", ".join(
            f"{k}={v}" for k, v in facts.items() if k != "calibration_s")
            + f", calibration_s={statistics.median(facts['calibration_s']):.4f}")


def compare(spec, first, second):
    """A/A: two sets of runs of the same code, the second against the
    first: medians by the benchmark's own bounds (timings), the first
    runs for equality (counts).  Returns the misses."""
    misses = []

    def median(side, key, name):
        return statistics.median(
            run[key]["metrics"][name]["value"] for run in side)

    print(f"\n{'A/A, medians of ' + str(len(first)):44s} {'first':>12s} "
          f"{'second':>12s} {'change':>8s} {'bound':>6s}")
    for key in first[0]:
        section = "per_layer" if key.endswith("/trace1") else "end_to_end"
        for metric in spec[section]:
            name = metric["name"]
            if section == "end_to_end":
                a, b = median(first, key, name), median(second, key, name)
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                bad = worse > metric["bound"]
                print(f"{key + ' ' + name:44s} {a:12.5g} {b:12.5g} "
                      f"{worse:+8.1%} {metric['bound']:6.2f}{'  MISS' if bad else ''}")
            elif metric["unit"] in EXACT_UNITS:
                a = first[0][key]["metrics"][name]["value"]
                b = second[0][key]["metrics"][name]["value"]
                bad = a != b
                if bad:
                    print(f"{key + ' ' + name:44s} {a:12} {b:12}  MISS (exact)")
            else:
                continue
            if bad:
                misses.append(f"{key} {name}")
    misses += [f"{key} incorrect" for run in first + second
               for key, entry in run.items() if not entry["correct"]]
    return misses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write results, raw samples and machine "
                        "facts to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        parser.exit(2, f"run.py: nothing to measure: {ROOT / 'src' / 'repro'} is missing\n")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # --smoke: tiny graphs, one round each.
    pick, seconds = (smoke, 0.0) if args.smoke else (lambda w: w, args.seconds)
    if seconds is None:
        seconds = spec["run_seconds"]

    if args.workload:
        result, detail = measure(
            spec, pick(WORKLOADS[args.workload]), args.seed, seconds,
            args.trace)
        report = {**result, **detail}
        print(json.dumps(detail["facts"]))
        print(json.dumps(result))
        failed = result["failed"]
    else:
        workloads = [pick(w) for w in WORKLOADS.values()]
        if args.aa:
            # The two sets alternate, so a bad minute falls on both;
            # the traced runs are only needed once a side, for the counts.
            sides = [], []
            for i in range(2 * AA_RUNS):
                sides[i % 2].append(run_matrix(
                    spec, workloads, args.seed, seconds,
                    traces=(0, 1) if i < 2 else (0,)))
            misses = compare(spec, *sides)
            print("\nA/A: " + ("agree" if not misses else "MISSED " + ", ".join(misses)))
            report = {"first": sides[0], "second": sides[1], "misses": misses}
            failed = len(misses)
        else:
            report = run_matrix(spec, workloads, args.seed, seconds)
            failed = sum(entry["failed"] for entry in report.values())
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
