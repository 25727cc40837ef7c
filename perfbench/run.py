"""reesval benchmark: time to a correct, checked answer from public entry points.

    python3 perfbench/run.py --workload session --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports reesval from that checkout's
src/ only. One process, one caller, no threads: a closed loop. After set-up
it runs passes until --seconds have gone by; a pass runs every item of the
workload once from cold state, and each answer is checked against a
reference that does not come from the code under test. Pass times are
reported in units of a fixed reference job timed beside every pass, so
that changes in the machine's own speed cancel out (see NOTES.md).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up runs this many times before the first pass, and once more before
# each timed pass; setup_s is the median of all of them.
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
REF_REPEATS = 3

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from refcheck import reference_job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SUBMODULES = tracing.MODULES


class PinError(RuntimeError):
    pass


def import_reesval():
    """Import reesval from this checkout's src/, dropping any earlier import.

    Returns the submodules by name. Workloads look functions up on them at
    call time, so that the tracer's wrappers are the ones called.
    """
    for name in [m for m in sys.modules if m == "reesval" or m.startswith("reesval.")]:
        del sys.modules[name]
    pkg = importlib.import_module("reesval")
    path = Path(pkg.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise PinError(f"reesval resolved to {path}, not under {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"reesval.{n}") for n in SUBMODULES})


def git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return None


def environment():
    import reesval

    return {
        "reesval": str(Path(reesval.__file__).resolve()),
        "git_head": git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def set_up(workload, seed):
    """Import reesval, generate and parse the inputs: (rv, inputs, seconds)."""
    gc.collect()
    start = perf_counter()
    rv = import_reesval()
    inputs = workload.make_inputs(seed)
    workload.parse(rv, inputs)
    return rv, inputs, perf_counter() - start


def run_pass(rv, items, failures):
    """Run every item once; returns (wall, cpu) of the timed calls."""
    wall = cpu = 0.0
    for item in items:
        gc.collect()
        w0, c0 = perf_counter(), process_time()
        try:
            out = item.call(rv)
        except Exception as exc:  # any failure of the program is a failed item
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        wall += perf_counter() - w0
        cpu += process_time() - c0
        if error is None:
            try:
                error = item.check(out)
            except Exception as exc:  # an answer of the wrong shape fails too
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{item.name}: {error}")
    return wall, cpu


def spread_line(label, samples, unit):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"{label}: median {statistics.median(samples):.6g} {unit} over {n} samples"
    if n >= 11:
        q = 100 * (n - 10) / n
        text += f", p{q:.0f} {sorted(samples)[n - 11]:.6g} {unit}"
    else:
        text += f" (no percentile has >= 10 samples beyond it; max {max(samples):.6g} {unit})"
    return text


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def time_reference():
    """(wall, cpu) of the reference job, each the median of REF_REPEATS runs."""
    walls, cpus = [], []
    for _ in range(REF_REPEATS):
        gc.collect()
        w0, c0 = perf_counter(), process_time()
        reference_job()
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def timed_passes(workload, seed, items, seconds, failures, setups):
    """Untraced passes until `seconds` have gone by.

    Returns four lists with one sample per pass: wall and CPU seconds, and
    wall and CPU in reference units, that is divided by the mean of the
    reference job's times just before and just after the pass. Each pass
    follows a fresh set-up, whose time is added to `setups`, so the set-up
    samples spread over the whole run.
    """
    samples = []
    before = time_reference()
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        rv, _, setup = set_up(workload, seed)
        setups.append(setup)
        wall, cpu = run_pass(rv, items, failures)
        after = time_reference()
        ref_wall, ref_cpu = [(b + a) / 2 for b, a in zip(before, after)]
        samples.append((wall, cpu, wall / ref_wall, cpu / ref_cpu))
        before = after
    return [list(column) for column in zip(*samples)]


def traced_passes(rv, items, seconds, failures, problems):
    """Traced and untraced passes, alternating: (tracer, traced walls, untraced walls).

    Alternating puts drift in machine speed on both sides of
    trace.overhead_ratio alike. The run starts with a traced pass, so state
    leaking from one pass into the next shows as different counts in the
    first two traced passes.
    """
    tr = tracing.Tracer("reesval")
    traced, untraced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        if len(untraced) < len(traced):
            untraced.append(run_pass(rv, items, failures)[0])
            continue
        tr.begin_pass()
        tr.install()
        try:
            traced.append(run_pass(rv, items, failures)[0])
        finally:
            tr.restore()
    for i in range(1, len(traced)):
        if tr.pass_counts(i) != tr.pass_counts(i - 1):
            problems.append(f"traced counts of pass {i} differ from pass {i - 1}")
    return tr, traced, untraced


def measure(workload, seed, seconds, trace):
    end_to_end, per_layer = load_spec()
    setups = []
    for _ in range(SETUP_REPEATS):
        rv, inputs, setup = set_up(workload, seed)
        setups.append(setup)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    items = workload.items(inputs)
    failures = []  # items that raised or failed their check
    problems = []  # failed self-checks of the benchmark
    if not trace:
        walls, cpus, wall_refs, cpu_refs = timed_passes(
            workload, seed, items, seconds, failures, setups
        )
        attempted = len(items) * len(walls)
        print("# " + spread_line("wall_s", walls, "s"))
        print("# " + spread_line("cpu_s", cpus, "s"))
        print("# " + spread_line("wall_ref", wall_refs, "ref"))
        print("# " + spread_line("cpu_ref", cpu_refs, "ref"))
        print("# " + spread_line("setup_s", setups, "s"))
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(wall_refs),
            "cpu_ref": statistics.median(cpu_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
    else:
        tr, traced, untraced = traced_passes(rv, items, seconds, failures, problems)
        attempted = len(items) * (len(traced) + len(untraced))
        print("# " + spread_line("untraced wall_s", untraced, "s"))
        print("# " + spread_line("traced wall_s", traced, "s"))
        overhead = statistics.median(traced) / statistics.median(untraced)
        metrics = tr.metrics(per_layer, overhead)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{seed}.json"
        tr.dump(path, env)
        print(f"# spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    print(f"# failed_ratio: {len(failures) / attempted} ({len(failures)} of {attempted} items)")
    for failure in failures[:20] + problems:
        print("# FAILED " + failure)
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reesval" / "__init__.py").is_file():
        print(f"error: no reesval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except (PinError, tracing.CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
