"""Benchmark of spintori, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  A run is a closed loop with
one caller in one process: it checks each case before it starts the
next.  It repeats whole passes over the workload's cases until at least
``--seconds`` have passed, so every run measures the same case mix.

With ``--trace 0`` every pass is untraced and the last line of standard
output holds the end-to-end metrics.  With ``--trace 1`` untraced and
traced passes alternate, and the last line holds the per-layer metrics,
the tracing overhead among them.  The line before it is a JSON record of
the run: machine, commit, seed, result digest, tail percentile and any
failures.  The record, and for a traced run every span, are also written
under ``.perfbench_out/``.

Exit codes: 0 result printed and every check passed, 1 result printed
and a check failed, 2 nothing to run (usage error, or no ``src/spintori``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter

from spans import Direct, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep", "growth", "closed_scale", "witness")
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60

# per-layer time metric -> span name; times are self seconds per traced pass
LAYER_TIMES = {
    "permutations.enumerate_s": "permutations.enumerate",
    "tori.closed_form_s": "tori.closed_form",
    "matrices.torus_matrix_s": "matrices.torus_matrix",
    "matrices.reduced_matrix_s": "matrices.reduced_matrix",
    "matrices.identity_s": "matrices.identity",
    "matrices.text_s": "matrices.text",
    "smith.lattice_snf_s": "smith.lattice_snf",
    "smith.reduced_snf_s": "smith.reduced_snf",
    "smith.witness_snf_s": "smith.witness_snf",
    "smith.certify_s": "smith.certify",
    "smith.determinant_s": "smith.determinant",
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs in a fresh process and report when done
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import spintori from this checkout's src/, or return None."""
    if not (SRC / "spintori" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import spintori

    if Path(spintori.__file__).resolve().parent != (SRC / "spintori").resolve():
        return None
    return spintori


def fingerprint(inputs) -> str:
    if isinstance(inputs, dict):
        blob = json.dumps(inputs, sort_keys=True)
    else:
        blob = json.dumps([(c.id, c.text) for c in inputs])
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(wl, inputs, probe, counts, max_failures=20):
    """One pass over the workload's cases, with each case's seconds in
    pass order.  The digest is a sum of per-case hashes, so it does not
    depend on the order of the cases."""
    t0 = perf_counter()
    times = array("d")
    pass_span = probe.open("pass")
    digest = failed = checks = 0
    failures = []
    cases = wl.cases(inputs, probe, counts)
    for case in cases:
        span = probe.open("case", case.id)
        c0 = perf_counter()
        try:
            result, k, bad = wl.check(case, probe, counts)
        except Exception as exc:  # a raising call is a failed case, not a crash
            result, k, bad = None, 0, [f"raised {type(exc).__name__}: {str(exc)[:200]}"]
        c1 = perf_counter()
        probe.close(span)
        times.append(c1 - c0)
        checks += k
        if bad:
            failed += 1
            if len(failures) < max_failures:
                failures.append(f"{case.id}: {', '.join(bad)}")
        h = hashlib.blake2b(f"{case.id}={result!r}".encode(), digest_size=16).digest()
        digest = (digest + int.from_bytes(h, "big")) % (1 << 128)
    probe.close(pass_span)
    return {
        "seconds": perf_counter() - t0,
        "cases": len(cases),
        "checks": checks,
        "failed": failed,
        "failures": failures,
        "digest": format(digest, "032x"),
        "times": times,
    }


def measure(wl, inputs, counts, seconds, traced):
    """Whole passes until ``seconds`` have passed; with ``traced``,
    untraced and traced passes alternate, at least one of each."""
    direct, tracer = Direct(), (Tracer() if traced else None)
    passes = []
    begin = perf_counter()
    while True:
        use_tracer = traced and len(passes) % 2 == 1
        rec = run_pass(wl, inputs, tracer if use_tracer else direct, counts)
        rec["traced"] = use_tracer
        passes.append(rec)
        if perf_counter() - begin >= seconds and (not traced or len(passes) >= 2):
            return passes, tracer


def case_times(passes):
    """Each case's median seconds over the untraced passes."""
    runs = [p["times"] for p in passes if not p["traced"]]
    return [statistics.median(col) for col in zip(*runs)]


def percentile(values, p):
    """The p-th percentile, smoothed: the mean of the order statistics
    within one binomial standard deviation, sqrt(n p (1-p)), of the
    nearest rank.  A single noisy case near the rank moves it little."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(p * n / 100))
    m = max(1, round(math.sqrt(n * p / 100 * (1 - p / 100))))
    window = xs[max(0, rank - 1 - m) : min(n, rank + m)]
    return sum(window) / len(window)


def tail(values):
    """Highest of p99, p95, p90 with at least ten cases beyond its
    nearest rank; returns (percentile, value, cases beyond)."""
    n = len(values)
    for p in (99, 95, 90):
        beyond = n - max(1, math.ceil(p * n / 100))
        if beyond >= 10 or p == 90:
            return p, percentile(values, p), beyond


def setup_samples(args, want_fingerprint):
    """Set-up time of fresh processes: interpreter start, import of
    spintori and the workload's inputs built, as seen by the monotonic
    clock shared by parent and child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples, problems = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(child["ready"] - t0)
        if child["fingerprint"] != want_fingerprint:
            problems.append("setup child built different inputs from the same seed")
    return samples, problems


def startup_samples():
    """Wall time of ``python -m spintori enumerate --l 2 --form plus``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "spintori", "enumerate", "--l", "2", "--form", "plus"]
    samples, problems = [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.endswith("4 classes\n"):
            problems.append(f"startup command: exit {proc.returncode}")
    return samples, problems


def named_case_ms(workload, inputs, times, worst_cases):
    if workload != "growth":
        return {}
    at = {c.id: i for i, c in enumerate(inputs)}
    return {f"{w['type']}@{w['q']}": times[at[f"{w['type']}@{w['q']}"]] * 1e3 for w in worst_cases}


def machine_info():
    cpu = None
    try:  # Linux only; elsewhere the model stays unknown
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
    }


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
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
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spintori").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pass_rate(passes):
    """Median over the passes of cases per second."""
    return statistics.median(p["cases"] / p["seconds"] for p in passes)


def end_to_end_metrics(passes, times, setup, failed, attempted):
    _, tail_s, _ = tail(times)
    return {
        "cases_per_s": (pass_rate(passes), "1/s"),
        "case_p50_ms": (percentile(times, 50) * 1e3, "ms"),
        "case_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (1 - failed / attempted, "frac"),
    }


def per_layer_metrics(passes, summary, counts, startup, cli_failed):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)

    def per_pass(span, key="self_s"):
        return summary.get(span, {}).get(key, 0) / n

    m = {metric: (per_pass(span), "s/pass") for metric, span in LAYER_TIMES.items()}
    m["permutations.classes"] = (counts.classes / len(passes), "count/pass")
    for layer in ("tori", "matrices", "smith"):
        calls = sum(v["count"] for k, v in summary.items() if k.startswith(layer + "."))
        m[f"{layer}.calls"] = (calls / n, "count/pass")
    for route in ("lattice", "reduced"):
        m[f"smith.{route}_snf_max_ms"] = (summary.get(f"smith.{route}_snf", {}).get("max_s", 0) * 1e3, "ms")
    m["smith.det_bits_max"] = (counts.det_bits_max, "bits")
    m["smith.diag_bits_max"] = (counts.diag_bits_max, "bits")
    m["smith.witness_bits_max"] = (counts.witness_bits_max, "bits")
    m["smith.witness_over_det_bits"] = (counts.witness_over_det_bits, "ratio")
    m["cli.startup_s"] = (statistics.median(startup), "s")
    m["cli.verify_s"] = (summary.get("cli.verify", {}).get("self_s", 0), "s")
    m["cli.snf_s"] = (summary.get("cli.snf", {}).get("self_s", 0), "s")
    m["cli.failed"] = (cli_failed, "count")
    m["bench.harness_s"] = (per_pass("case") + per_pass("pass"), "s/pass")
    m["trace.cases_per_s"] = (pass_rate(traced), "1/s")
    m["trace.untraced_cases_per_s"] = (pass_rate(untraced), "1/s")
    m["trace.overhead_frac"] = (1 - pass_rate(traced) / pass_rate(untraced), "frac")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        print(f"error: no spintori source tree at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Counts, worst_cases

    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    if args.setup_only:
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "fingerprint": fingerprint(inputs)}))
        return 0

    problems = []
    setup, bad = setup_samples(args, fingerprint(inputs))
    problems += bad
    startup = []
    if args.trace:
        startup, bad = startup_samples()
        problems += bad

    counts = Counts()
    passes, tracer = measure(wl, inputs, counts, args.seconds, bool(args.trace))
    times = case_times(passes)

    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append("passes over the same inputs gave different results")
    checks = sorted({p["checks"] for p in passes})

    cli_failures = []
    if args.trace:
        if hasattr(wl, "cli"):
            cli_failures = wl.cli(inputs, tracer, checks[0])
        metrics = per_layer_metrics(passes, tracer.summary(), counts, startup, len(cli_failures))
    else:
        metrics = end_to_end_metrics(passes, times, setup, failed, attempted)

    pct, tail_s, beyond = tail(times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "inputs_sha256": fingerprint(inputs),
        "result_digest": digests[0] if len(digests) == 1 else digests,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "cases_per_pass": passes[0]["cases"],
        "checks_per_pass": checks[0] if len(checks) == 1 else checks,
        "untraced_passes": sum(not p["traced"] for p in passes),
        "tail": {"percentile": pct, "ms": tail_s * 1e3, "cases_beyond": beyond, "cases": len(times)},
        "pass_rates": [p["cases"] / p["seconds"] for p in passes if not p["traced"]],
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "problems": problems,
        "setup_samples_s": setup,
        "named_case_ms": named_case_ms(args.workload, inputs, times, worst_cases()),
        "inputs": inputs if isinstance(inputs, dict) else None,
    }
    if args.trace:
        record["cli_startup_samples_s"] = startup
        record["cli_failures"] = cli_failures
    correct = failed == 0 and not problems

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.tsv.gz")

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
