"""Seeded end-to-end benchmark of nfai's decide, certify, verify and product
operations.

    python3 perfbench/run.py --workload parity-split --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (per-call medians over the run, in
seconds at the reference speed of harness.scaled); with ``--trace 1``
it carries the per-layer metrics from spans around each public call.  The
lines before it are a readable report.  Span or pass records are written to
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
from statistics import median
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_MIN_SAMPLES = 11
SETUPS_PER_ROUND = 2
CPUS = os.sched_getaffinity(0)

import workloads  # noqa: E402  (the script's own directory is on sys.path)
from harness import (  # noqa: E402
    OPS, Checks, Plan, Tracer, once_per_run, pin_fastest_cpu, probe_m_leq_k, probe_time,
    run_round, scaled, tail,
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_package():
    """Import nfai from the checkout's own src/, never from elsewhere."""
    if not (SRC / "nfai" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'nfai'}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "nfai" or m.startswith("nfai.")]:
        del sys.modules[name]
    nf = importlib.import_module("nfai")
    if Path(nf.__file__).resolve().parent != (SRC / "nfai").resolve():
        raise SystemExit(f"error: imported nfai from {nf.__file__}, not from {SRC}")
    return nf


def timed_setup(name: str, seed: int, size: str):
    """Import the package afresh, then generate and serialise the workload.
    Returns the package, the workload, and the set-up time at the reference
    speed (harness.scaled); the process is left pinned to one CPU."""
    gc.collect()
    probe_before = pin_fastest_cpu(CPUS)
    start = time.perf_counter()
    nf = import_package()
    w = workloads.build(nf, name, seed, size)
    return nf, w, scaled(time.perf_counter() - start, probe_before, probe_time())


def measure(nf, w, seconds: float, trace: bool, checks: Checks, tracer: Tracer, setup_again):
    """Closed loop of rounds for ``seconds``.  The first round times one
    pass of each operation and plans the later rounds.  Untraced, the last
    rounds run only the batches that still fit in the time.  With tracing,
    rounds alternate untraced and traced (at least one each) and only whole
    rounds are run, because a traced round is read as a whole; the loop
    stops before a round that would overrun.  More set-ups are timed after
    every round, so the set-up samples are spread over the run like the
    pass samples."""
    rounds = []  # (traced, samples, span index range, passes per operation)
    plan = Plan()
    took = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            tracer.enabled = traced
            first = len(tracer.spans)
            began = time.perf_counter()
            deadline = None if trace or not rounds else start + seconds
            samples, passes = run_round(nf, w, tracer, len(rounds), plan, checks, CPUS, deadline)
            if not samples:
                return rounds
            if traced:
                probe_m_leq_k(nf, w, tracer, len(rounds), passes)
            tracer.enabled = False
            rounds.append((traced, samples, (first, len(tracer.spans)), passes))
            if len(rounds) == 1:
                plan = Plan({op: wall for op, _, _, wall, _ in samples})
            for _ in range(SETUPS_PER_ROUND):
                setup_again()
            took.append(time.perf_counter() - began)
            if trace and len(rounds) < 2:
                continue
            if trace and time.perf_counter() - start + max(took[-2:]) > seconds:
                return rounds
    finally:
        os.sched_setaffinity(0, CPUS)


# --- per-layer metrics from spans -------------------------------------------------

def _seconds(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def _round_layers(spans, lo, hi, reps=None) -> dict:
    """Span time per pass by name ("name") and by (parent, name) ("parent"),
    counter sums by (parent, name) ("counters"), and (extract-cut, decide)
    time pairs of the certify operations that wrote a cut ("rebfs").  Round
    spans carry trace ids ``round.pass.op.instance``: times are divided by
    the operation's passes in the round, counters come from its first pass."""
    out = {"name": defaultdict(float), "parent": defaultdict(float),
           "counters": defaultdict(lambda: defaultdict(int))}
    certify = defaultdict(dict)
    for s in spans[lo:hi]:
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        first_pass, weight = True, 1.0
        if reps is not None:
            _, r, op, _ = s["trace"].split(".", 3)
            first_pass, weight = r == "0", 1.0 / reps[op]
        out["name"][s["name"]] += _seconds(s) * weight
        out["parent"][(parent, s["name"])] += _seconds(s) * weight
        if first_pass:
            for key, value in s["counters"].items():
                out["counters"][(parent, s["name"])][key] += value
            if parent == "op.certify":
                certify[s["trace"]][s["name"]] = _seconds(s)
    out["rebfs"] = [(c["certificates.extract_staggered_cut"], c["decision.decide_empty"])
                    for c in certify.values() if "certificates.extract_staggered_cut" in c]
    return out


def per_layer(rounds, tracer: Tracer, probe_range, once_counters) -> dict:
    spans = tracer.spans
    traced = [_round_layers(spans, *r[2], reps=r[3]) for r in rounds if r[0]]
    probe = _round_layers(spans, *probe_range)["name"]
    counts = traced[0]["counters"]

    def med(f):
        return median([f(layers) for layers in traced])

    def span_s(name):
        return med(lambda L: L["name"][name])

    m = {
        "fileformat.parse_bundle_s": span_s("fileformat.parse_bundle"),
        "fileformat.bundle_bytes": sum(v["bytes"] for (_, name), v in counts.items()
                                       if name == "fileformat.parse_bundle"),
        "products.builder_setup_s": probe["products.builder_for.nodding"],
        "products.m_leq_k_s": med(lambda L: sum(L["name"][f"products.m_leq_k.{c}"] for c in workloads.SPARSE)),
    }
    for c in workloads.ALL_CONSTRUCTIONS:
        name = f"products.accessible_stats.{c}"
        m[f"products.explore_s.{c}"] = med(lambda L: L["name"][name] - L["name"][f"products.m_leq_k.{c}"])
        m[f"products.states_accessible.{c}"] = counts[("op.product", name)]["states"]
        m[f"products.transitions_accessible.{c}"] = counts[("op.product", name)]["transitions"]
    decide_s = med(lambda L: L["parent"][("op.decide", "decision.decide_empty")])
    decided = counts[("op.decide", "decision.decide_empty")]
    m.update({
        "decision.decide_s": decide_s,
        "decision.states_explored": decided["states"],
        "decision.transitions_explored": decided["transitions"],
        "decision.witness_len": decided["witness_len"],
        "decision.transitions_per_s": decided["transitions"] / decide_s,
        "decision.new_state_ratio": decided["states"] / decided["transitions"],
    })
    verify_cut, naive = probe["certificates.verify_staggered_cut"], probe["certificates.verify_staggered_cut_naive"]
    in_out, mul = probe["certificates.build_in_out"], probe["boolmatrix.mul"]
    m.update({
        "certificates.extract_cut_s": span_s("certificates.extract_staggered_cut"),
        "certificates.extract_pathset_s": span_s("certificates.extract_short_pathset"),
        "certificates.serialize_s": span_s("certificates.serialize_certificate"),
        "certificates.parse_cert_s": span_s("certificates.parse_certificate"),
        "certificates.in_out_s": in_out,
        "certificates.verify_basics_s": verify_cut - in_out - mul,
        "certificates.verify_pathset_s": span_s("certificates.verify_short_pathset"),
        "certificates.verify_naive_s": naive,
        "certificates.cert_bytes": once_counters["cert_bytes"],
        "certificates.cut_popcount": once_counters["cut_popcount"],
        "certificates.cut_fill": once_counters["cut_popcount"] / once_counters["cut_bits"],
        "boolmatrix.mul_s": mul,
        "certify_rebfs_ratio": med(lambda L: sum(x for x, _ in L["rebfs"]) / sum(y for _, y in L["rebfs"])),
        "certificates.matrix_naive_ratio": verify_cut / naive,
    })
    return m


# --- the run ----------------------------------------------------------------------

def sum_of_medians(batches) -> float:
    """A pass's time as the sum over its instances (or jobs) of each one's
    median time per pass over the batches.  A burst of host load then
    spoils one call's sample rather than the whole pass's."""
    return sum(median(b[name] for b in batches) for name in batches[0])


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    nf, w, first_setup = timed_setup(name, seed, size)
    setup_times = [first_setup]
    workloads.known_answers(w)
    checks, tracer = Checks(), Tracer()
    rounds = measure(nf, w, seconds, trace, checks, tracer,
                     lambda: setup_times.append(timed_setup(name, seed, size)[2]))
    while len(setup_times) < SETUP_MIN_SAMPLES:
        setup_times.append(timed_setup(name, seed, size)[2])
    os.sched_setaffinity(0, CPUS)
    setup_s = median(setup_times)
    tracer.enabled = trace
    first = len(tracer.spans)
    once = once_per_run(nf, w, tracer, checks, probe=trace)
    probe_range = (first, len(tracer.spans))
    tracer.enabled = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def op_samples(traced, field=1):
        return {op: [sample[field] for tr, samples, _, _ in rounds if tr == traced
                     for sample in samples if sample[0] == op]
                for op in OPS}

    samples = op_samples(False)
    walls = op_samples(False, field=3)
    per_call = op_samples(False, field=4)
    e2e = {f"{op}_s": sum_of_medians(per_call[op]) for op in OPS}
    e2e.update({"peak_rss_mb": rss_mb, "setup_s": setup_s})

    lines = [f"workload {name} seed {seed}: {len(rounds)} rounds in a closed loop, one process, one thread"]
    for op in OPS:
        lines.append(f"  {op}_s {e2e[op + '_s']:.6g} s at the reference speed; pass median {median(samples[op]):.6g} s, "
                     f"{tail(samples[op])}; wall median {median(walls[op]):.6g} s")
    lines.append(f"  peak_rss_mb {rss_mb:.6g} MB (ru_maxrss of this process only)")
    lines.append(f"  setup_s median {setup_s:.6g} s over {len(setup_times)} set-ups, {tail(setup_times)}")
    lines.append(f"  verify_decide_ratio {e2e['verify_s'] / e2e['decide_s']:.4g} "
                 f"(verify_s {e2e['verify_s']:.6g} s / decide_s {e2e['decide_s']:.6g} s)")
    lines.append(f"  fail_ratio {checks.failed}/{checks.attempted} = {checks.failed / max(checks.attempted, 1):.4g}")
    lines.extend(f"  FAILED: {msg}" for msg in checks.messages)

    if trace:
        metrics = per_layer(rounds, tracer, probe_range, once)
        traced = op_samples(True, field=4)
        traced_total = sum(sum_of_medians(traced[op]) for op in OPS)
        untraced_total = sum(e2e[f"{op}_s"] for op in OPS)
        metrics["verify_decide_ratio"] = e2e["verify_s"] / e2e["decide_s"]
        metrics["trace.overhead_ratio"] = traced_total / untraced_total
        lines.append(f"  certify_rebfs_ratio {metrics['certify_rebfs_ratio']:.4g} "
                     f"(extract_staggered_cut / decide_empty, certify operations that wrote a cut)")
        lines.append(f"  certificates.matrix_naive_ratio {metrics['certificates.matrix_naive_ratio']:.4g} "
                     f"(verify_staggered_cut {metrics['certificates.verify_basics_s'] + metrics['certificates.in_out_s'] + metrics['boolmatrix.mul_s']:.6g} s"
                     f" / naive {metrics['certificates.verify_naive_s']:.6g} s)")
        lines.append(f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.4g} "
                     f"(traced {traced_total:.6g} s / untraced {untraced_total:.6g} s per round)")
        result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        records = [_record(name, s) for s in tracer.spans]
    else:
        result = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        records = [{"workload": name, "engine": "all", "phase": f"pass.{op}", "seconds": t,
                    "counters": {"round": i, "passes": n}, "wall_seconds": wall, "calls": calls}
                   for i, (_, samples, _, _) in enumerate(rounds) for op, t, n, wall, calls in samples]
    _write_records(name, seed, trace, records)
    print("\n".join(lines))
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": result}


def _record(workload: str, span: dict) -> dict:
    phase = span["name"]
    if phase.startswith(("products.accessible_stats.", "products.m_leq_k.")):
        engine = phase.rsplit(".", 1)[1]
    elif phase.endswith("_naive"):
        engine = "naive"
    elif phase in ("certificates.verify_staggered_cut", "certificates.build_in_out", "boolmatrix.mul"):
        engine = "matrix"
    else:
        engine = "nodding"
    return {"workload": workload, "engine": engine, "phase": phase, "seconds": _seconds(span),
            "counters": span["counters"], "span": span["id"], "parent": span["parent"],
            "trace": span["trace"], "start_ns": span["start"], "end_ns": span["end"]}


def _write_records(name, seed, trace, records) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(records) + "\n", encoding="utf-8")


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: all checks pass
    and every metric named in BENCHMARK.json is reported."""
    spec = load_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run(name, 1, 0, bool(trace), size="tiny")
            missing = want[trace] - set(out["metrics"])
            extra = set(out["metrics"]) - want[trace]
            good = out["correct"] and not missing and not extra
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'}"
                  + (f" missing {sorted(missing)}" if missing else "")
                  + (f" unlisted {sorted(extra)}" if extra else ""))
            ok &= good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
