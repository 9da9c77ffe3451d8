"""The jacpairs benchmark: closed-loop, single-process workloads over the
library's public functions.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (one caller, one thread, every pass in a fresh interpreter):

  reconstruct  100 seeded (family, p, t) cases through
               glue.verify_reconstruction; builds many small extension
               fields and uses each briefly.
  charp        the characteristic-p checks of ``jacpairs reproduce``:
               charp_analysis, full_scan over F_p and F_{p^2},
               exhaustive_split_scan; few fields, many element operations.
  rational     identities, prime supports and obstruction records over Q,
               plus two seeded integer resultants through the CRT kernel.

A run starts SETUP_PROBES interpreters that only set up, then makes whole
passes until the next one would end after ``--seconds`` (at least one).
Each pass runs the same cases from a cold start.

Times are gauged.  The host's speed drifts by a fifth and more over seconds
to minutes, so the pass times a fixed loop (``workload.gauge_s``) before
set-up ends and between cases, and every time is reported at the speed at
which that loop takes NOMINAL_GAUGE_S: raw seconds * NOMINAL_GAUGE_S /
gauge.  The raw figures are printed and recorded too.  Per case the
median over passes is kept; case_p50/p90 are Harrell-Davis quantiles over
the cases, wall_s is their sum, setup_s the median over all interpreters.

With ``--trace 1`` untraced and traced passes alternate, and the run
reports the per-layer figures of the traced passes.  Details go to
bench/results/; the last line of stdout is the JSON result.  The exit code
is 0 when every verdict is correct, 1 when one is not, 2 when the run
itself cannot be made.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = tuple(workload.WORKLOADS)
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # every child is killed once a run has taken this long
# About the gauge's median time inside passes on the host the benchmark was
# sized on (2-core Xeon at 2.0 GHz, Python 3.11), so gauged and raw times
# are of the same size there.  Changing it rescales every reported time.
NOMINAL_GAUGE_S = 0.005


class BenchError(RuntimeError):
    pass


def _environment(seed):
    sys.path.insert(0, str(SRC))
    from jacpairs import kernels

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "kernel_backend": kernels.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _child_env():
    """The caller's environment, with the checkout's sources first on the
    path and bytecode caching on, as for an installed package: only the
    first interpreter of a fresh checkout compiles the sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(workload, seed, deadline, tamper, *flags):
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--tamper", tamper, *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(t0)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["pass_s"] = time.monotonic() - t0
    return result


def _quantile(values, q, steps=64):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): a weighted
    mean of all order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.
    It moves far less with a single case than one order statistic does.
    The weights are integrated by the midpoint rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = norm = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
        total += w * x
        norm += w
    return total / norm


def _gauged(r):
    """A pass's case latencies in gauged seconds: each scaled by the mean
    of the two gauges taken around it."""
    g = r["gauges_s"]
    return [
        lat * NOMINAL_GAUGE_S / ((g[i] + g[i + 1]) / 2) for i, lat in enumerate(r["latencies_s"])
    ]


def _case_figures(passes, gauged):
    """wall_s and case quantiles from the per-case medians over passes."""
    per_pass = [_gauged(r) if gauged else r["latencies_s"] for r in passes]
    cases = [statistics.median(x) for x in zip(*per_pass)]
    return {
        "wall_s": sum(cases),
        "case_p50_ms": _quantile(cases, 0.5) * 1000,
        "case_p90_ms": _quantile(cases, 0.9) * 1000,
    }


def measure(workload, seed, seconds, trace=False, tamper="none"):
    """One run of one workload: set-up probes, then passes until the time
    budget is spent.  Returns everything measured."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    spans_path = RESULTS / f"{tag}-spans.jsonl"

    setups = [_spawn(workload, seed, deadline, tamper, "--setup-only") for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        if trace and len(plain) > len(traced):
            r = _spawn(workload, seed, deadline, tamper, "--spans-out", str(spans_path))
            traced.append(r)
        else:
            r = _spawn(workload, seed, deadline, tamper)
            plain.append(r)
        setups.append(r)
        if trace and not traced:
            continue
        if time.monotonic() - start + r["pass_s"] > seconds:
            break

    passes = plain + traced
    attempted = sum(len(r["latencies_s"]) for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    metrics = _case_figures(plain, gauged=True)
    metrics["setup_s"] = statistics.median(
        r["setup_s"] * NOMINAL_GAUGE_S / r["setup_gauge_s"] for r in setups
    )
    metrics["peak_rss_mb"] = statistics.median(r["maxrss_mb"] for r in plain)
    raw = _case_figures(plain, gauged=False)
    raw["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "cases_per_pass": len(plain[0]["latencies_s"]),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
        "raw": raw,
        "pass_latencies_s": [r["latencies_s"] for r in plain],
        "pass_gauges_s": [r["gauges_s"] for r in plain],
    }
    if "rows" in plain[0]:
        out["rows"] = plain[0]["rows"]
    if traced:
        out["layers"] = {
            key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
        }
        out["trace_overhead_s"] = _case_figures(traced, gauged=True)["wall_s"] - metrics["wall_s"]
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def _report(res, env, units):
    """Human-readable summary on stdout, full record in bench/results/."""
    print(
        f"== {res['workload']}  seed {res['seed']}  passes {res['passes']}"
        + (f" (+{res['traced_passes']} traced)" if res["trace"] else "")
        + f"  cases/pass {res['cases_per_pass']}"
    )
    for name, value in res["metrics"].items():
        raw = res["raw"].get(name)
        extra = f"   (raw {raw:.4f})" if raw is not None else ""
        print(f"  {name:<14} {value:>12.4f} {units[name]}{extra}")
    print(
        f"  {'failed_frac':<14} {res['failed_frac']:>12.4f} ratio"
        f" ({res['failed']} of {res['attempted']} verdicts)"
    )
    for f in res["failures"]:
        print(f"    FAILED {f['case']}: {f['why']}")
    if res["trace"]:
        print(f"  trace overhead {res['trace_overhead_s']:+.3f} s (traced minus untraced wall_s)")
        for key, value in sorted(res["layers"].items()):
            if value:
                print(f"    {key:<52} {value:.6g}")
        print(f"  spans: {res['spans_file']}")
    print(
        "  env: python {python}, kernel {kernel_backend}, nproc {nproc}, seed {seed}, "
        "commit {commit}, src {src_sha256:.12}".format(**env)
    )
    tag = f"{res['workload']}-seed{res['seed']}" + ("-trace" if res["trace"] else "")
    (RESULTS / f"{tag}.json").write_text(json.dumps(dict(res, env=env), indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tamper",
        choices=workload.TAMPERS,
        default="none",
        help="break one expectation, to show that the correctness gate fails",
    )
    args = parser.parse_args(argv)

    if not (SRC / "jacpairs" / "__init__.py").is_file():
        print(f"error: no jacpairs sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    env = _environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace), args.tamper) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for res in results:
        _report(res, env, units)
        values = res["layers"] if args.trace else res["metrics"]
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for m in reported:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
