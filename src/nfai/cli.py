"""Command line front end.

Subcommands: ``product``, ``decide``, ``certify``, ``verify``, ``gen``,
``bench``, ``oracle``, ``rs``.  Exit codes are script-friendly: 0 for the
affirmative answer (non-empty / valid / satisfiable / success), 1 for the
negative one, 2 for usage or input errors.  All randomized commands take
explicit seeds; nothing draws ambient entropy.  The environment variable
``NFAI_STATE_BUDGET``, the only budget, caps product states explored, cut
tuple spaces and what the generators and reductions would build.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from . import certificates, decision, hardness, oracle, products, relations
from .automata import InstanceBundle
from .fileformat import (
    FormatError,
    parse_automaton,
    parse_bundle,
    serialize_automaton,
    serialize_bundle,
)
from .relations import MultiTapeAutomaton

BENCH_CSV_HEADER = (
    "instance,construction,k,l,n,m,states_accessible,transitions_accessible,wall_time_ns,answer"
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_bundle(path: str) -> InstanceBundle:
    return parse_bundle(_read(path))


def cmd_product(args) -> int:
    bundle = _load_bundle(args.bundle)
    if args.full:
        automaton = products.materialize(args.construction, bundle)
        stats, _ = products.accessible_stats(args.construction, bundle)
    else:
        automaton, stats = products.accessible_part(args.construction, bundle)
    _write(args.out, serialize_automaton(automaton))
    print(products.STATS_CSV_HEADER, file=sys.stderr)
    print(products.stats_csv_row(stats), file=sys.stderr)
    return 0


def _format_word(word) -> str:
    return " ".join(map(str, word))


def cmd_decide(args) -> int:
    bundle = _load_bundle(args.bundle)
    result = decision.decide_empty(bundle)
    print(
        f"explored_states={result.explored_states} "
        f"explored_transitions={result.explored_transitions}",
        file=sys.stderr,
    )
    if result.empty:
        print("EMPTY")
        return 1
    word = decision.witness_word(result)
    print(("NONEMPTY " + _format_word(word)).rstrip())
    return 0


def cmd_certify(args) -> int:
    bundle = _load_bundle(args.bundle)
    result = decision.decide_empty(bundle)
    if result.empty:
        cert = certificates.extract_staggered_cut(bundle)
        print("EMPTY: wrote staggered cut", file=sys.stderr)
    else:
        cert = certificates.extract_short_pathset(bundle, result)
        print("NONEMPTY: wrote short pathset", file=sys.stderr)
    _write(args.out, certificates.serialize_certificate(cert))
    return 0


def cmd_verify(args) -> int:
    bundle = _load_bundle(args.bundle)
    cert = certificates.parse_certificate(_read(args.certificate))
    if isinstance(cert, certificates.ShortPathset):
        verdict = certificates.verify_short_pathset(bundle, cert)
        kind = "pathset"
    else:
        verdict = certificates.verify_staggered_cut(bundle, cert)
        kind = "cut"
    if verdict.ok:
        print(f"VALID {kind}")
        return 0
    where = " ".join(map(str, verdict.where))
    print(f"INVALID {kind}: {verdict.condition}" + (f" at {where}" if where else ""))
    return 1


def _parse_random_graph(spec: str) -> hardness.UndirectedGraph:
    try:
        n_text, p_text, seed_text = spec.split(",")
        return hardness.random_graph(int(n_text), float(p_text), int(seed_text))
    except ValueError as exc:
        raise ValueError(f"bad random graph spec {spec!r}; expected random:n,p,seed") from exc


def cmd_gen(args) -> int:
    if args.kind != "clique":
        raise ValueError(f"unknown generator {args.kind!r}")
    if args.graph.startswith("random:"):
        graph = _parse_random_graph(args.graph[len("random:"):])
    else:
        graph = hardness.parse_graph(_read(args.graph))
    bundle = hardness.clique_bundle(graph, args.k)
    headers = ["dfa"] * bundle.k
    _write(args.out, serialize_bundle(bundle, headers=headers))
    return 0


def cmd_oracle(args) -> int:
    bundle = _load_bundle(args.bundle)
    # the oracle keeps n masks of n bits and l * n letter slots per component
    cells = max(a.n_states * (a.n_states + a.n_letters) for a in bundle.automata)
    products.check_budget(cells, f"oracle tables need {cells} cells")
    witness = oracle.bounded_intersection_witness(bundle, args.max_len)
    if witness is None:
        print("NONE")
        return 1
    print(("WITNESS " + _format_word(witness)).rstrip())
    return 0


def cmd_rs(args) -> int:
    bundle = _load_bundle(args.bundle)
    if args.equality:
        relation = relations.equality_relation(bundle.k, bundle.n_letters)
    else:
        parsed = parse_automaton(_read(args.relation))
        if not isinstance(parsed, MultiTapeAutomaton):
            raise ValueError("relation file must hold an 'mtnfa' block")
        relation = parsed
    if relations.decide_rs(bundle, relation):
        print("SATISFIABLE")
        return 0
    print("UNSATISFIABLE")
    return 1


def _bench_one(job):
    instance_id, k, l, n, density, seed, construction, timing = job
    start = time.perf_counter_ns()
    try:
        bundle = hardness.random_bundle(k, n, l, density, seed)
        start = time.perf_counter_ns()
        stats, nonempty = products.accessible_stats(construction, bundle)
    except products.BudgetExceeded:
        # a refused draw or walk; every component draws round(density * l * n^2)
        elapsed = time.perf_counter_ns() - start if timing else 0
        return f"{instance_id},{construction},{k},{l},{n},{round(density * (l * n * n))},0,0,{elapsed},SKIP"
    elapsed = time.perf_counter_ns() - start if timing else 0
    bounds = products.SIZE_BOUNDS[construction](k, l, n, stats.n_transitions_max, stats.m_leq_k)
    if stats.transitions_accessible > bounds[1]:
        raise AssertionError(
            f"size bound violated for {construction} on {instance_id}: {stats}"
        )
    answer = "NONEMPTY" if nonempty else "EMPTY"
    return (
        f"{instance_id},{construction},{k},{l},{n},{stats.n_transitions_max},"
        f"{stats.states_accessible},{stats.transitions_accessible},{elapsed},{answer}"
    )


def cmd_bench(args) -> int:
    densities = [float(x) for x in args.density.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    constructions = args.constructions.split(",")
    for c in constructions:
        if c not in products.CONSTRUCTIONS:
            raise ValueError(f"unknown construction {c!r}")
    timing = not args.no_timing
    jobs = []
    for density in densities:
        for seed in seeds:
            instance_id = f"k{args.k}-l{args.alphabet}-n{args.n}-d{density}-s{seed}"
            for construction in constructions:
                jobs.append(
                    (instance_id, args.k, args.alphabet, args.n, density, seed,
                     construction, timing)
                )
    print(BENCH_CSV_HEADER)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for row in pool.map(_bench_one, jobs):
                print(row)
    else:
        for job in jobs:
            print(_bench_one(job))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfai",
        description="Sparse products, emptiness decision, and certificates for NFA intersection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="construct a product automaton")
    p.add_argument("bundle", help="bundle file (NFA blocks separated by ---)")
    p.add_argument("--construction", required=True, choices=products.CONSTRUCTIONS)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.add_argument("--full", action="store_true", help="materialize all states, not just the accessible part")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("decide", help="decide intersection emptiness")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("certify", help="decide and write a certificate")
    p.add_argument("bundle")
    p.add_argument("-o", "--out", required=True, help="certificate output file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="verify a certificate against a bundle")
    p.add_argument("bundle")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("kind", choices=["clique"])
    p.add_argument("--graph", required=True, help="graph file or random:n,p,seed")
    p.add_argument("--k", type=int, required=True, help="clique size to reduce from")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="seeded benchmark harness (CSV on stdout)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alphabet", "-l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", default="1.0", help="comma-separated densities")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--constructions", default="nodding,direct")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timing", action="store_true", help="write 0 timings for byte-reproducible output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force bounded intersection search")
    p.add_argument("bundle")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rs", help="decide relation satisfaction")
    p.add_argument("bundle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--relation", help="mtnfa relation file")
    group.add_argument("--equality", action="store_true", help="use the equality relation")
    p.set_defaults(func=cmd_rs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError, products.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
