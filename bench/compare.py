#!/usr/bin/env python3
"""Run the benchmark over seeds and compare result files.

Run from the repository root:

  python3 bench/compare.py run OUT.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]
      Runs `bash bench/run.sh` once per workload and seed and appends one
      JSON line per run: {"workload", "seed", "trace", "result"}, where
      result is the run's last stdout line.

  python3 bench/compare.py spread RESULTS.jsonl
      Per workload and end-to-end metric: median, quartiles and the spread
      (Q3 - Q1) / median, against the metric's bound in BENCHMARK.json.

  python3 bench/compare.py diff BASE.jsonl HEAD.jsonl
      Per workload and metric: base and head medians and a verdict.
      End-to-end metrics are judged against their bounds: worse (head's
      median worse by more than the bound), improved (better by more than
      the base spread and winning at least nine tenths of the seed-paired
      runs), unresolved (base spread wider than the bound and neither side
      beats every run of the other), or unchanged. Per-layer metrics have
      no bound and are listed with their change only.

  python3 bench/compare.py agree FIRST.jsonl SECOND.jsonl
      The run-to-run acceptance check on two sets of runs of the same code:
      every end-to-end spread except setup_s within its bound in both sets,
      and every second median no worse than the first by more than the
      bound. Exits 1 if any check fails.

Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_runs(path):
    """Returns {(workload, trace): [(seed, result), ...]}."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append((r["seed"], r["result"]))
    return runs


def values(runs, metric):
    return [res["metrics"][metric]["value"] for _, res in runs if metric in res["metrics"]]


def spread(vals):
    """(median, q1, q3, (q3 - q1) / median); the spread is inf for a zero median."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, head, better):
    """Relative change of head against base, positive when head is worse."""
    if base == 0:
        return 0.0 if head == 0 else float("inf")
    rel = (head - base) / base
    return rel if better == "lower" else -rel


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(args.out, "a") as out:
        for seed in seeds:
            for w in names:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
                for line in lines[:-1]:
                    print(line)
                res = json.loads(lines[-1])
                if not res["correct"]:
                    print(f"{w} seed {seed}: INCORRECT ({res['failed']} of {res['attempted']} failed)")
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": res}) + "\n")
                out.flush()


def cmd_spread(args):
    spec = load_spec()
    runs = load_runs(args.results)
    ok = True
    for (w, trace), rs in sorted(runs.items()):
        if trace:
            continue
        print(f"{w} ({len(rs)} runs)")
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(values(rs, m["name"]))
            flag = "ok" if sp <= m["bound"] or m["name"] == "setup_s" else "WIDE"
            ok = ok and flag == "ok"
            print(f"  {m['name']:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:6.3f}  bound {m['bound']:.2f}  {flag}")
    return 0 if ok else 1


def cmd_diff(args):
    spec = load_spec()
    base, head = load_runs(args.base), load_runs(args.head)
    for key in sorted(set(base) & set(head)):
        w, trace = key
        b, h = base[key], head[key]
        print(f"{w} ({'traced' if trace else 'untraced'}; {len(b)} base runs, {len(h)} head runs)")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            bv, hv = values(b, m["name"]), values(h, m["name"])
            if not bv or not hv:
                continue
            bmed, hmed = statistics.median(bv), statistics.median(hv)
            rel = worse_by(bmed, hmed, m["better"])
            if "bound" not in m:
                print(f"  {m['name']:<28} base {bmed:<12.6g} head {hmed:<12.6g} change {-rel:+.1%} (better {m['better']})")
                continue
            _, _, _, bsp = spread(bv)
            lower = m["better"] == "lower"
            head_beats_all = max(hv) < min(bv) if lower else min(hv) > max(bv)
            head_loses_all = min(hv) > max(bv) if lower else max(hv) < min(bv)
            bs, hs = dict(b), dict(h)
            paired = [s for s in bs if s in hs]
            wins = sum(1 for s in paired
                       if worse_by(bs[s]["metrics"][m["name"]]["value"], hs[s]["metrics"][m["name"]]["value"], m["better"]) < 0)
            if bsp > m["bound"] and not (head_beats_all or head_loses_all):
                verdict = "unresolved"
            elif rel > m["bound"] or head_loses_all:
                verdict = "worse"
            elif -rel > bsp and paired and wins >= 0.9 * len(paired):
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"  {m['name']:<18} base {bmed:<12.6g} head {hmed:<12.6g} change {-rel:+.1%} "
                  f"base spread {bsp:.3f} bound {m['bound']:.2f}  {verdict}")
    return 0


def cmd_agree(args):
    spec = load_spec()
    first, second = load_runs(args.first), load_runs(args.second)
    ok = True
    for key in sorted(set(first) & set(second)):
        w, trace = key
        if trace:
            continue
        print(w)
        for m in spec["end_to_end"]:
            f, s = values(first[key], m["name"]), values(second[key], m["name"])
            fmed, _, _, fsp = spread(f)
            smed, _, _, ssp = spread(s)
            checks = []
            if m["name"] != "setup_s":
                checks += [fsp <= m["bound"], ssp <= m["bound"]]
            checks.append(worse_by(fmed, smed, m["better"]) <= m["bound"])
            good = all(checks)
            ok = ok and good
            print(f"  {m['name']:<18} spreads {fsp:.3f} / {ssp:.3f}  medians {fmed:.6g} / {smed:.6g}  "
                  f"bound {m['bound']:.2f}  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--workloads", default="all")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s = sub.add_parser("spread")
    s.add_argument("results")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("head")
    a = sub.add_parser("agree")
    a.add_argument("first")
    a.add_argument("second")
    args = ap.parse_args()
    sys.exit({"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff, "agree": cmd_agree}[args.cmd](args) or 0)


if __name__ == "__main__":
    main()
