#!/usr/bin/env python3
"""One-command runner of the end-to-end benchmark (see README.md here).

Builds bench_e2e from the checkout into out/bench_e2e/build, runs every
workload in its own process and prints each metric with its name and unit.

One run, with a strict-JSON result object as the last line of stdout:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The suite (no --workload): every workload --runs times at one seed, then
the median and quartiles of each metric; results land in
out/bench_e2e/RESULTS.json (or --out):

    python3 bench/e2e/run.py [--seed 7] [--runs 5] [--traced] [--smoke]
    python3 bench/e2e/run.py --runs 1 --out parent.json --append
    python3 bench/e2e/run.py --compare parent.json [--against child.json]
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / "out" / "bench_e2e"
BUILD = OUT / "build"
SCHEMA = "pastis.bench_e2e.v1"
MIN_CORES = 4
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def check_host():
    cores = len(os.sched_getaffinity(0))
    if cores < MIN_CORES:
        die(f"needs {MIN_CORES} cores, this host gives {cores}; "
            "refusing to oversubscribe the 4-thread load")


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "pastis.hpp").is_file():
        die(f"no library sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD.parent / "e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                      "-j", str(MIN_CORES)])
        with open(log, "w") as f:
            for cmd in steps:
                if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=850).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    die(f"build failed; see {log}", 1)
    return BUILD / "bench_e2e"


def expected_digest(workload, seed):
    table = json.loads((HERE / "expected.json").read_text())
    return table.get(workload, {}).get(str(seed))


def run_once(binary, spec, workload, seed, seconds, traced, scale=1.0):
    """One bench_e2e process; returns its result: correct, attempted, failed
    and metrics, plus digest and check details."""
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}", f"--work-dir={work}",
           f"--out-dir={OUT}"] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode == 2:
        die(f"bench_e2e refused its arguments: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)

    metrics, checks = {}, []
    res = {"attempted": 0, "failed": 0, "digest": None, "samples": None}
    for line in proc.stdout.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] == "metric":
            metrics[f[1]] = {"value": float(f[2]), "unit": f[3]}
        elif f[0] in ("attempted", "failed", "samples"):
            res[f[0]] = int(f[1])
        elif f[0] == "digest":
            res["digest"] = f[1]
        elif f[0] == "check":
            checks.append({"name": f[1], "ok": f[2] == "ok",
                           "detail": " ".join(f[3:])})
    correct = proc.returncode == 0 and all(c["ok"] for c in checks)

    # Every metric the kind of run promises, in BENCHMARK.json's units.
    # Layers a workload never calls read 0 in a traced run.
    listed = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in metrics.items():
        if units.get(name) != m["unit"] or not math.isfinite(m["value"]):
            checks.append({"name": f"bad_metric.{name}", "ok": False,
                           "detail": f"{m['value']} {m['unit']}"})
            m["value"] = 0.0
            correct = False
    for name, unit in units.items():
        if name not in metrics:
            if not traced:
                checks.append({"name": f"missing_metric.{name}", "ok": False,
                               "detail": ""})
                correct = False
            metrics[name] = {"value": 0.0, "unit": unit}
    metrics = {name: metrics[name] for name in units}

    res["digest_status"] = "unchecked"
    want = expected_digest(workload, seed) if scale == 1.0 else None
    if not traced and want is not None:
        if res["digest"] == want:
            res["digest_status"] = "ok"
        else:
            res["digest_status"] = f"MISMATCH (expected {want})"
            res["failed"] += 1  # the run's output is wrong: one failed op
            correct = False
    res.update(correct=correct, metrics=metrics, checks=checks,
               workload=workload, seed=seed, traced=traced)
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"LAYERS_{workload}.json").write_text(
            json.dumps({"schema": SCHEMA, "workload": workload, "seed": seed,
                        "metrics": metrics}, indent=1, allow_nan=False))
    return res


def print_run(res):
    for name, m in res["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"check {c['name']} FAIL {c['detail']}")
    print(f"attempted {res['attempted']} failed {res['failed']} "
          f"samples {res['samples']} digest {res['digest']} "
          f"{res['digest_status']}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else 0.0
    return values, q1, med, q3, spread


def compare(spec, parent, child):
    """Applies each end-to-end bound; returns True when nothing regressed."""
    ok = True
    print(f"{'workload':14s} {'metric':17s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for wl in spec["workloads"]:
        name_wl = wl["name"]
        pr = parent["workloads"].get(name_wl, {}).get("runs", [])
        cr = child["workloads"].get(name_wl, {}).get("runs", [])
        if not pr or not cr:
            print(f"{name_wl:14s} (missing runs)")
            ok = False
            continue
        for m in spec["end_to_end"]:
            pv, _, pmed, _, pspread = summarize(pr, m["name"])
            cv, _, cmed, _, cspread = summarize(cr, m["name"])
            lower = m["better"] == "lower"
            worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            pairs = list(zip(pv, cv))
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            if all((c < p if lower else c > p) for c in cv for p in pv):
                verdict = "better (every run)"
            elif max(pspread, cspread) > m["bound"]:
                verdict = "unresolved (spread > bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "within bound"
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and -worse > pspread):
                verdict += f"; gain ({wins}/{len(pairs)} pairs)"
            print(f"{name_wl:14s} {m['name']:17s} {pmed:12.5g} {cmed:12.5g} "
                  f"{100 * worse:+7.2f}% {m['bound']:6.2f}  {verdict}")
    return ok


def suite(args, spec):
    out_path = Path(args.out) if args.out else OUT / "RESULTS.json"
    scale = 0.125 if args.smoke else 1.0
    seconds = 0.25 if args.smoke else (args.seconds or spec["run_seconds"])
    runs = 1 if args.smoke else args.runs
    if args.append and out_path.is_file():
        results = json.loads(out_path.read_text())
    else:
        results = {"schema": SCHEMA, "seed": args.seed, "scale": scale,
                   "seconds": seconds, "workloads": {}}
    binary = build()
    all_ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        slot = results["workloads"].setdefault(name, {"runs": [], "traced": []})
        for _ in range(runs):
            res = run_once(binary, spec, name, args.seed, seconds, False, scale)
            slot["runs"].append(res)
            all_ok = all_ok and res["correct"]
        if args.traced:
            res = run_once(binary, spec, name, args.seed, seconds, True, scale)
            slot["traced"].append(res)
            all_ok = all_ok and res["correct"]

        print(f"== {name}: {wl['why']}")
        rs = slot["runs"]
        for m in spec["end_to_end"]:
            _, q1, med, q3, _ = summarize(rs, m["name"])
            print(f"metric {m['name']} {med!r} {m['unit']} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(rs)})")
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        digests = sorted({f"{r['digest']} {r['digest_status']}" for r in rs})
        print(f"failed {failed}/{attempted} operations; digest "
              + ", ".join(digests))
        for r in slot["traced"][-1:]:
            for mname, m in r["metrics"].items():
                print(f"metric {mname} {m['value']!r} {m['unit']}")
            bad = [c["name"] for c in r["checks"] if not c["ok"]]
            print("work agreement: " + ("FAILED " + ", ".join(bad)
                                         if bad else "ok"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1, allow_nan=False))
    print(f"wrote {out_path}")
    return all_ok, results


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="suite: also one traced run per workload")
    ap.add_argument("--smoke", action="store_true",
                    help="suite at 1/8 scale, one short run per workload")
    ap.add_argument("--out", help="suite results file")
    ap.add_argument("--append", action="store_true",
                    help="add this suite's runs to an existing --out file")
    ap.add_argument("--compare", metavar="PARENT.json",
                    help="apply BENCHMARK.json's bounds against PARENT.json")
    ap.add_argument("--against", metavar="CHILD.json",
                    help="with --compare: compare this file, run nothing")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare and args.against:
        ok = compare(spec, json.loads(Path(args.compare).read_text()),
                     json.loads(Path(args.against).read_text()))
        sys.exit(0 if ok else 1)

    check_host()
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            die(f"unknown workload {args.workload}")
        binary = build()
        seconds = args.seconds or spec["run_seconds"]
        res = run_once(binary, spec, args.workload, args.seed, seconds,
                       args.trace == 1)
        print_run(res)
        print(json.dumps({"correct": res["correct"],
                          "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": res["metrics"]}, allow_nan=False))
        sys.exit(0 if res["correct"] else 1)

    ok, results = suite(args, spec)
    if args.compare:
        ok = compare(spec, json.loads(Path(args.compare).read_text()),
                     results) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
