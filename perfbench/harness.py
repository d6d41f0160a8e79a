"""Closed-loop timing of the library calls behind ``nfai decide``,
``certify``, ``verify`` and ``product``, the correctness checks on their
outputs, and the optional span tracer.

A pass runs one operation over the workload: decide, certify or verify over
the instances, or ``accessible_stats`` over the sparse product jobs
(product) or the direct jobs (baseline).  A round times a batch of passes of
each operation in turn.  Each call starts from the bundle's text, and the
verify passes read the certificates the round's last certify pass wrote.
Only the public calls are wrapped in spans; nothing inside the package is
instrumented.
"""

from __future__ import annotations

import gc
import math
import os
import time
from typing import Dict, List

from workloads import Workload, size_bound_ok

OPS = ("decide", "certify", "verify", "product", "baseline")


# --- tracing ----------------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, trace):
        self.tracer = tracer
        self.rec = {"id": len(tracer.spans), "name": name, "trace": trace, "counters": {}}

    def __enter__(self):
        tracer, rec = self.tracer, self.rec
        rec["parent"] = tracer.stack[-1]["id"] if tracer.stack else None
        tracer.spans.append(rec)
        tracer.stack.append(rec)
        rec["start"] = time.perf_counter_ns()
        return rec["counters"]

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class Tracer:
    """Keeps spans in memory: name, start, end, parent span, and a trace id
    shared by the spans of one operation on one instance."""

    def __init__(self):
        self.enabled = False
        self.spans: List[dict] = []
        self.stack: List[dict] = []
        self._null = _NullSpan()

    def span(self, name: str, trace: str):
        return _Span(self, name, trace) if self.enabled else self._null


# --- the operations ---------------------------------------------------------------

def decide(nf, tr, inst, trace):
    """``nfai decide``: parse, decide, spell the witness."""
    with tr.span("op.decide", trace):
        with tr.span("fileformat.parse_bundle", trace) as c:
            bundle = nf.parse_bundle(inst.text)
            c["bytes"] = len(inst.text)
        with tr.span("decision.decide_empty", trace) as c:
            result = nf.decide_empty(bundle)
        c["states"], c["transitions"] = result.explored_states, result.explored_transitions
        word = None
        if not result.empty:
            with tr.span("decision.witness_word", trace):
                word = nf.witness_word(result)
            c["witness_len"] = len(word)
    return result, word


def certify(nf, tr, inst, trace):
    """``nfai certify``: parse, decide, extract a cut or pathset, serialise."""
    with tr.span("op.certify", trace):
        with tr.span("fileformat.parse_bundle", trace) as c:
            bundle = nf.parse_bundle(inst.text)
            c["bytes"] = len(inst.text)
        with tr.span("decision.decide_empty", trace):
            result = nf.decide_empty(bundle)
        if result.empty:
            with tr.span("certificates.extract_staggered_cut", trace):
                cert = nf.extract_staggered_cut(bundle)
        else:
            with tr.span("certificates.extract_short_pathset", trace):
                cert = nf.extract_short_pathset(bundle, result)
        with tr.span("certificates.serialize_certificate", trace) as c:
            text = nf.serialize_certificate(cert)
        c["bytes"] = len(text)
    return text


def verify(nf, tr, inst, cert_text, trace):
    """``nfai verify``: parse bundle and certificate, run the matching verifier."""
    with tr.span("op.verify", trace):
        with tr.span("fileformat.parse_bundle", trace) as c:
            bundle = nf.parse_bundle(inst.text)
            c["bytes"] = len(inst.text)
        with tr.span("certificates.parse_certificate", trace):
            cert = nf.parse_certificate(cert_text)
        if isinstance(cert, nf.ShortPathset):
            with tr.span("certificates.verify_short_pathset", trace):
                return nf.verify_short_pathset(bundle, cert)
        with tr.span("certificates.verify_staggered_cut", trace):
            return nf.verify_staggered_cut(bundle, cert)


def product(nf, tr, job, trace):
    """``nfai bench`` for one construction: parse, explore, size statistics."""
    with tr.span("op.product", trace):
        with tr.span("fileformat.parse_bundle", trace) as c:
            bundle = nf.parse_bundle(job.text)
            c["bytes"] = len(job.text)
        with tr.span(f"products.accessible_stats.{job.construction}", trace) as c:
            stats, nonempty = nf.accessible_stats(job.construction, bundle)
        c["states"], c["transitions"] = stats.states_accessible, stats.transitions_accessible
    return stats, nonempty


# --- checks -----------------------------------------------------------------------

class Checks:
    """Counts correctness checks attempted and failed; keeps the first few
    failure messages for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _check_pass(w: Workload, op: str, results: list, checks: Checks) -> None:
    """Check one pass's outputs against the known answers."""
    if op == "decide":
        for inst, (result, word) in zip(w.instances, results):
            checks.check(result.empty == inst.empty, f"{inst.name}: verdict")
            if not inst.empty:
                checks.check(word == inst.witness, f"{inst.name}: witness {word} != {inst.witness}")
    elif op == "certify":
        for inst, text in zip(w.instances, results):
            kind = text.split("\n", 2)[1]
            checks.check(kind == ("cut" if inst.empty else "pathset"), f"{inst.name}: certificate kind {kind}")
    elif op == "verify":
        for inst, verdict in zip(w.instances, results):
            checks.check(verdict.ok, f"{inst.name}: own certificate rejected ({verdict.condition})")
    else:
        jobs = [j for j in w.product_jobs if (j.construction == "direct") == (op == "baseline")]
        for job, (stats, nonempty) in zip(jobs, results):
            where = f"{job.name}/{job.construction}"
            checks.check(nonempty == job.nonempty, f"{where}: non-emptiness")
            checks.check(size_bound_ok(job.construction, stats), f"{where}: size bound")
            if job.transitions is not None:
                checks.check(stats.transitions_accessible == job.transitions,
                             f"{where}: {stats.transitions_accessible} transitions != {job.transitions}")
            if job.states is not None:
                checks.check(stats.states_accessible == job.states,
                             f"{where}: {stats.states_accessible} states != {job.states}")


# --- rounds -----------------------------------------------------------------------

# Best-of-three time of the probe below at the reference speed: a 2-vCPU
# Xeon virtual machine (Linux, Python 3.11) at the faster of its two levels.
REF_PROBE_S = 1.0e-3
_PROBE_KEYS = [(i % 53, i // 53, i % 7) for i in range(6000)]


def _probe() -> float:
    """Time filling a fresh dict with 6,000 new tuples: the allocation,
    hashing and dict growth that the package's searches are made of.  It
    is the benchmark's own code, so a change to the package cannot move it."""
    start = time.perf_counter()
    seen = {}
    for a, b, c in _PROBE_KEYS:
        key = (b, a, c)
        if key not in seen:
            seen[key] = a
    return time.perf_counter() - start


def probe_time() -> float:
    """Best of three runs of the probe on the current CPU."""
    return min(_probe() for _ in range(3))


def pin_fastest_cpu(cpus) -> float:
    """Pin this process to whichever of ``cpus`` runs the probe fastest
    right now and return that CPU's probe time.  On shared virtual machines
    each CPU's speed swings by up to 1.8x for stretches of a fraction of a
    second to many seconds, so this keeps a batch off a CPU that is slow at
    the moment it starts."""
    speed = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe_time()
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return speed[best]


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` seconds at the reference speed.  The whole host also slows
    down by up to 1.8x, on every CPU at once, for seconds to minutes; the
    probe, timed on the same CPU just before and just after, slows down
    with it, so dividing by its time cancels the host's speed and keeps
    the program's."""
    return wall * 2 * REF_PROBE_S / (probe_before + probe_after)


SAMPLE_S = 0.25  # shortest timed batch of passes after the first round
ROUND_OP_S = 1.0  # least timed work each operation gets in a later round


class Plan:
    """Passes per batch (``batch``), batches per round (``count``) and the
    expected seconds of one batch (``expect``) for each operation.  The
    first round runs one pass of each; later rounds are planned from its
    times.  A batch lasts at least SAMPLE_S, and each operation gets at
    least ROUND_OP_S, or one pass, per round, so the long operations do not
    starve the short ones of samples."""

    def __init__(self, pass_s: Dict[str, float] = None):
        if pass_s is None:
            self.batch = self.count = dict.fromkeys(OPS, 1)
            self.expect = dict.fromkeys(OPS, 0.0)
            return
        self.batch = {op: max(1, math.ceil(SAMPLE_S / t)) for op, t in pass_s.items()}
        self.expect = {op: self.batch[op] * t for op, t in pass_s.items()}
        self.count = {op: max(1, round(ROUND_OP_S / self.expect[op])) for op in pass_s}


def run_round(nf, w: Workload, tr: Tracer, no: int, plan: Plan, checks: Checks, cpus, deadline=None):
    """Time ``plan.count[op]`` batches of ``plan.batch[op]`` back-to-back
    passes of each operation, skipping a batch that is expected to end
    after ``deadline``.  The batches of all operations are taken in turn,
    and an operation with fewer batches is spread evenly over the turns, so
    every operation's samples cover the whole round: on a shared virtual
    machine the speed changes every few seconds, and a sample taken at one
    moment says little about the next.  Each batch starts on the CPU that
    is fastest at that moment, and each call in it is scaled to the
    reference speed by the probe times just before and after it.

    Returns the samples and the passes run per operation.  A sample is one
    batch: (operation, time of one pass at the reference speed, passes,
    mean wall time of one pass, {instance or job: its mean time per pass at
    the reference speed}).  The verify passes read the certificates of the
    latest certify pass, which are also kept on ``w`` for the once-per-run
    checks."""
    sparse = [j for j in w.product_jobs if j.construction != "direct"]
    direct = [j for j in w.product_jobs if j.construction == "direct"]
    calls = {
        "decide": [(i.name, lambda t, i=i: decide(nf, tr, i, f"{t}.{i.name}")) for i in w.instances],
        "certify": [(i.name, lambda t, i=i: certify(nf, tr, i, f"{t}.{i.name}")) for i in w.instances],
        "verify": [(i.name, lambda t, k=k, i=i: verify(nf, tr, i, w.certificates[k], f"{t}.{i.name}"))
                   for k, i in enumerate(w.instances)],
        "product": [(f"{j.name}.{j.construction}",
                     lambda t, j=j: product(nf, tr, j, f"{t}.{j.name}.{j.construction}")) for j in sparse],
        "baseline": [(j.name, lambda t, j=j: product(nf, tr, j, f"{t}.{j.name}")) for j in direct],
    }
    batch, count = plan.batch, plan.count
    turns = max(count.values())
    done = dict.fromkeys(OPS, 0)
    samples = []
    for turn in range(turns):
        for op in OPS:
            if (turn + 1) * count[op] // turns == turn * count[op] // turns:
                continue
            if deadline is not None and time.perf_counter() + plan.expect[op] > deadline:
                continue
            gc.collect()
            probe = pin_fastest_cpu(cpus)
            results, wall, per_call = [], 0.0, dict.fromkeys((name for name, _ in calls[op]), 0.0)
            for r in range(batch[op]):
                results.append([])
                for name, call in calls[op]:
                    start = time.perf_counter()
                    results[-1].append(call(f"{no}.{done[op] + r}.{op}"))
                    took = time.perf_counter() - start
                    probe_after = probe_time()
                    wall += took
                    per_call[name] += scaled(took, probe, probe_after) / batch[op]
                    probe = probe_after
            samples.append((op, sum(per_call.values()), batch[op], wall / batch[op], per_call))
            done[op] += batch[op]
            for result in results:
                _check_pass(w, op, result, checks)
            if op == "certify":
                w.certificates = results[-1]
    return samples, done


def _popcount(cut) -> int:
    return sum(mask.bit_count() for mask in cut.sets)


def once_per_run(nf, w: Workload, tr: Tracer, checks: Checks, probe: bool) -> dict:
    """Checks made once per run, outside the timed passes: the naive cut
    verifier, one mutated certificate per instance, and the clique oracle.
    With ``probe`` set, also times the layers a whole call hides: nodding
    builder set-up, the In/Out reshape and the Out x adjacency products.
    Returns exact counters of the certificates."""
    counters = {"cert_bytes": 0, "cut_popcount": 0, "cut_bits": 0}
    for inst, text in zip(w.instances, w.certificates):
        trace = f"once.{inst.name}"
        counters["cert_bytes"] += len(text)
        bundle = nf.parse_bundle(inst.text)
        cert = nf.parse_certificate(text)
        if inst.graph is not None:
            checks.check(nf.brute_force_has_clique(
                nf.UndirectedGraph(inst.graph[0], inst.graph[1]), inst.graph[2]) == (not inst.empty),
                f"{inst.name}: brute_force_has_clique disagrees with the first-clique search")
        if probe:
            with tr.span("products.builder_for.nodding", trace):
                nf.products.builder_for("nodding", bundle)
        if isinstance(cert, nf.ShortPathset):
            checks.check(nf.verify_short_pathset(bundle, _break_step(nf, cert)).condition
                         == ("wrong-start" if len(cert.runs[0]) == 1 else "discontinuity"),
                         f"{inst.name}: broken pathset step not rejected as expected")
            continue
        counters["cut_popcount"] += _popcount(cert)
        counters["cut_bits"] += len(cert.sets) * math.prod(cert.sizes)
        with tr.span("certificates.verify_staggered_cut_naive", trace):
            naive = nf.verify_staggered_cut_naive(bundle, cert)
        checks.check(naive.ok, f"{inst.name}: naive verifier rejects the cut ({naive.condition})")
        verdict = nf.verify_staggered_cut(bundle, _clear_volley_bit(nf, cert))
        checks.check(verdict.condition == "closure",
                     f"{inst.name}: cleared volley bit gave {verdict.condition}, not closure")
        if probe:
            with tr.span("certificates.verify_staggered_cut", trace):
                nf.verify_staggered_cut(bundle, cert)
            with tr.span("certificates.build_in_out", trace):
                mats = nf.build_in_out(bundle, cert)
            with tr.span("boolmatrix.mul", trace):
                for p, a in enumerate(bundle.automata):
                    for letter in range(cert.n_letters):
                        mats.out_mat(p, letter).mul(nf.adjacency_matrix(a, letter))
    return counters


def probe_m_leq_k(nf, w: Workload, tr: Tracer, no: int, reps: Dict[str, int]) -> None:
    """Time ``m_leq_k`` on each product job's bundle, batched like the job's
    pass and under the job's trace id, so that a traced round pairs it with
    the ``accessible_stats`` call it is part of."""
    for job in w.product_jobs:
        op = "baseline" if job.construction == "direct" else "product"
        bundle = nf.parse_bundle(job.text)
        for r in range(reps[op]):
            with tr.span(f"products.m_leq_k.{job.construction}", f"{no}.{r}.{op}.{job.name}"):
                nf.m_leq_k(bundle)


def _clear_volley_bit(nf, cut):
    """Clear the lowest bit of the first non-empty volley-1 set.  Every tuple
    there was reached by a component-0 move from the base set, so the cut
    must now fail closure."""
    sets = list(cut.sets)
    index = next(cut.n_letters + letter for letter in range(cut.n_letters) if sets[cut.n_letters + letter])
    sets[index] &= sets[index] - 1
    return nf.StaggeredCut(cut.n_letters, cut.sizes, tuple(sets))


def _break_step(nf, ps):
    """Move the source of run 0's last step off its predecessor's target."""
    runs = [list(r) for r in ps.runs]
    src, label, dst = runs[0][-1]
    runs[0][-1] = (src + 1, label, dst)
    return nf.ShortPathset(ps.word, tuple(tuple(r) for r in runs))


# --- summaries --------------------------------------------------------------------

def tail(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}: fewer than 11 samples, no percentile has 10 beyond it"
    ordered = sorted(samples)
    rank = n - 10
    return f"p{100 * rank // n}={ordered[rank - 1]:.6g} (n={n})"
