"""Run one dgforge benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload pretr_laws --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (`wall_rel`, `setup_s`, `peak_rss_mb`);
with `--trace 1` they are the per-layer ones from `tracer.py`, plus the
tracing overhead.  Spans of a traced run go to `perfbench/out/`.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SPEED_REFERENCE, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in fresh interpreters this many times, one before each of
# the first timed iterations so that the probes sample the machine's speed
# across the run; the median is setup_s.
SETUP_REPEATS = 7
# Fewest timed iterations per run, even when one outlasts --seconds.
MIN_ITERATIONS = 3


def use_sources():
    """Put the checkout's `src/` first on the import path, or exit."""
    if not (SRC / "dgforge" / "__init__.py").is_file():
        sys.exit("perfbench: no dgforge sources under %s" % SRC)
    sys.path.insert(0, str(SRC))


def digest(inputs):
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def probe_setup(workload, seed):
    """Set-up time of one fresh process: interpreter start, `import
    dgforge` and input generation, in seconds scaled to a machine whose
    speed probe takes SPEED_REFERENCE (see speed.py); then the input
    digest the process printed and its unscaled wall time."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError("set-up probe failed for %s" % workload)
    inputs_digest, speed = out.stdout.split()
    return elapsed * SPEED_REFERENCE / float(speed), inputs_digest, elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_sources()
    import tracer as tracing
    import workloads
    from expected import FINGERPRINTS

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    generate, run = workloads.WORKLOADS[args.workload]

    inputs = generate(args.seed)
    tr = tracing.Tracer()  # its wrappers are installed for traced iterations only
    verdicts, fingerprints, speeds, probes = [], set(), [], []
    walls, rels, traced_walls, traced_rels = [], [], [], []

    def timed():
        """One iteration, traced when the tracer's wrappers are installed:
        wall time, and wall time over the mean speed probe."""
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                v, fingerprint = run(inputs, tr)
            except Exception as exc:  # a crash outside every check fails the run
                v, fingerprint = workloads.Verdicts(), None
                v.items.append((args.workload, True, "raised %r" % exc))
            wall = time.perf_counter() - t0
        verdicts.append(v)
        fingerprints.add(json.dumps(fingerprint, sort_keys=True))
        speeds.append(sampler.mean())
        return wall, wall / speeds[-1]

    # The first iteration fills the library's module-level caches; it is
    # checked but not timed.
    timed()
    deadline = time.perf_counter() + args.seconds
    while True:
        if not args.trace and len(probes) < SETUP_REPEATS:
            probes.append(probe_setup(args.workload, args.seed))
        wall, rel = timed()
        walls.append(wall)
        rels.append(rel)
        if args.trace:
            # traced and untraced iterations alternate, so their difference
            # is the tracing overhead under the same machine conditions
            tr.record_spans = not traced_walls
            with tr.installed():
                wall, rel = timed()
            traced_walls.append(wall)
            traced_rels.append(rel)
        if time.perf_counter() >= deadline and len(walls) >= MIN_ITERATIONS:
            break
    while not args.trace and len(probes) < SETUP_REPEATS:
        probes.append(probe_setup(args.workload, args.seed))

    failed = [f for v in verdicts for f in v.failed]
    attempted = sum(len(v.items) for v in verdicts)
    fingerprint = next(iter(fingerprints))
    problems = ["verdict %s: expected %s, got %s" % f for f in failed]
    if len(fingerprints) != 1:
        problems.append("fingerprint changed between iterations")
    if json.loads(fingerprint) != FINGERPRINTS[args.workload]:
        problems.append("fingerprint differs from the recorded one")
    digests = {d for _, d, _ in probes}
    if probes and digests != {digest(inputs)}:
        problems.append("input digests differ between processes: %s" % sorted(digests))
    if tracing.wrappers_in_place():
        problems.append("tracer wrappers left in place")

    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in tr.per_layer(len(traced_walls)).items()
        }
        # in seconds at the run's median machine speed (see SpeedSampler)
        overhead = (statistics.median(traced_rels) - statistics.median(rels)) * statistics.median(speeds)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed)), {
            "workload": args.workload, "seed": args.seed,
            "traced_iterations": len(traced_walls), "spans": "first traced iteration",
            "wall_s": statistics.median(walls), "traced_wall_s": statistics.median(traced_walls),
        })
    else:
        metrics = {
            "wall_rel": {"value": statistics.median(rels), "unit": "x"},
            "setup_s": {"value": statistics.median(t for t, _, _ in probes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }

    print("fingerprint %s" % fingerprint)
    for line in problems:
        print("problem: %s" % line, file=sys.stderr)
    print("iterations %d timed, %d traced; fail_ratio %d/%d; median wall_s %.4f"
          % (len(walls), len(traced_walls), len(failed), attempted, statistics.median(walls)),
          file=sys.stderr)
    print("wall_s %s" % " ".join("%.3f" % w for w in walls), file=sys.stderr)
    print("wall_rel %s" % " ".join("%.2f" % r for r in rels), file=sys.stderr)
    if probes:
        print("setup_s %s; unscaled %s" % (
            " ".join("%.3f" % t for t, _, _ in probes),
            " ".join("%.3f" % e for _, _, e in probes)), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
