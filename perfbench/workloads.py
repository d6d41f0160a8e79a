"""Seeded workload generators and their known answers.

Generation (``build``) is what ``setup_s`` times: it uses only the package's
public generators and serialisers and returns bundle texts, because every
timed operation starts from a bundle's text as a CLI run does.  Known answers
(``known_answers``) come from code in this file that shares nothing with the
package's products, decision or certificate modules: a shortlex subset
search, a first-clique enumeration, breadth-first counts of the nodding and
direct products, and the separation instance's exact counts.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SEPARATION_TRANSITIONS = {
    # complete-relation separation instance, k=2, l=2, n=40; independent of
    # the seed because the relation is complete and finals do not gate the
    # full exploration
    "nodding": 256_000,
    "echoing": 256_000,
    "catchup": 640_000,
    "leapfrog": 512_080,
    "direct": 5_120_000,
}

SPARSE = ("nodding", "echoing", "catchup", "leapfrog")
ALL_CONSTRUCTIONS = SPARSE + ("direct",)


@dataclass
class Instance:
    """A decide/certify/verify input: the bundle text plus the expected
    verdict and witness word, set by the generator when the construction
    fixes them and by ``known_answers`` otherwise."""

    name: str
    text: str
    automata: tuple  # the generated components, read by the known answers
    graph: Optional[tuple] = None  # (n_vertices, edge set, clique size)
    empty: Optional[bool] = None
    witness: Optional[tuple] = None


@dataclass
class ProductJob:
    """One ``accessible_stats`` call; ``transitions`` is the exact expected
    accessible-transition count where one is known independently."""

    name: str
    text: str
    automata: tuple
    construction: str
    nonempty: Optional[bool] = None
    transitions: Optional[int] = None
    states: Optional[int] = None


@dataclass
class Workload:
    name: str
    instances: List[Instance] = field(default_factory=list)
    product_jobs: List[ProductJob] = field(default_factory=list)
    certificates: List[str] = field(default_factory=list)  # last certify pass


# --- generators ---------------------------------------------------------------

def _doubled(nfai, base, even_final: bool, extra=(), extra_finals=()):
    """``base`` times a parity bit: every transition flips the bit, and the
    finals keep only the copies whose bit says an even (or odd) length."""
    transitions = set(base.transitions) | set(extra)
    finals = (set(base.finals) | set(extra_finals)) - ({0} if extra_finals else set())
    parity = 0 if even_final else 1
    return nfai.Nfa(
        2 * base.n_states,
        base.n_letters,
        tuple((2 * q + b, a, 2 * d + 1 - b) for (q, a, d) in transitions for b in (0, 1)),
        0,
        frozenset(2 * q + parity for q in finals),
    )


def relabelled_nfas(nfai, k: int, n: int, density: float, seed: str):
    """k fixed two-letter random NFA per (k, n, density), with the
    non-initial states of each permuted and the letters swapped or not, as
    ``seed`` draws.  Every seed gives isomorphic automata, so the searches do
    the same amount of work on every seed while the labels, certificates
    and witnesses move; fresh draws vary the accessible part by up to 2x."""
    rng = random.Random(seed)
    swap = rng.random() < 0.5
    automata = []
    for i in range(k):
        a = nfai.random_nfa(n, 2, density, f"parity-base/{k}/{n}/{density}/{i}")
        perm = [0] + rng.sample(range(1, n), n - 1)
        automata.append(nfai.Nfa(
            n, 2, tuple((perm[q], letter ^ swap, perm[d]) for (q, letter, d) in a.transitions),
            0, frozenset(perm[q] for q in a.finals)))
    return automata


def parity_split(nfai, k: int, n: int, density: float, seed: str):
    """k random n-state NFA doubled by a parity bit; component 0 accepts only
    even lengths and the others only odd lengths, so the intersection is
    empty while the accessible part stays large."""
    return nfai.InstanceBundle(tuple(
        _doubled(nfai, a, i == 0) for i, a in enumerate(relabelled_nfas(nfai, k, n, density, seed))
    ))


def parity_matched(nfai, n: int, density: float, seed: str):
    """Control with both components final on even lengths.  A planted path
    0 -0-> 1 -1-> 2 into a final state 2 makes it non-empty, and state 0 is
    never final, so the shortest witness has length exactly 2."""
    return nfai.InstanceBundle(tuple(
        _doubled(nfai, a, True, extra=((0, 0, 1), (1, 1, 2)), extra_finals=(2,))
        for a in relabelled_nfas(nfai, 2, n, density, seed)
    ))


def clique_graph(nfai, n: int, p: float, seed: str):
    """One fixed random graph per (n, p), with exactly round(p * C(n, 2))
    edges, relabelled by a permutation drawn from ``seed``.  The labels move
    the witness and the certificates, while the search does the same amount
    of work on every seed; fresh G(n, p) draws vary it by up to a quarter."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = random.Random(f"clique-graph/{n}/{p}").sample(pairs, round(p * len(pairs)))
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return nfai.UndirectedGraph(n, frozenset((perm[u], perm[v]) for u, v in edges))


def separation(nfai, n: int, seed: str):
    """Complete relation, k=2, l=2 (n=40 in the full workload).  Finals are
    random but exclude the initial state, so the shortest witness has
    length 1."""
    automata = []
    for i in range(2):
        a = nfai.random_nfa(n, 2, 1.0, f"{seed}/{i}")
        finals = (a.finals - {0}) or frozenset({1})
        automata.append(nfai.Nfa(a.n_states, a.n_letters, a.transitions, 0, finals))
    return nfai.InstanceBundle(tuple(automata))


# sizes per workload: (full, tiny); tiny is the smoke self-test
_PARITY = {
    "full": dict(p2=(100, 0.05), p3=(20, 0.2), ctl=(8, 0.25), prod=(40, 0.1)),
    "tiny": dict(p2=(10, 0.3), p3=(5, 0.4), ctl=(4, 0.3), prod=(6, 0.3)),
}
_CLIQUE = {
    "full": [("dense-k4", 4, 30, 0.4), ("dense-k5", 5, 24, 0.5),
             ("sparse-k4", 4, 30, 0.1), ("sparse-k5", 5, 20, 0.15)],
    "tiny": [("dense-k4", 4, 9, 0.8), ("sparse-k4", 4, 9, 0.1)],
}
_CLIQUE_PRODUCT = {"full": (4, 10, 0.3), "tiny": (4, 6, 0.5)}
_PRODUCTS_CLIQUE = {"full": (4, 30, 0.1), "tiny": (4, 8, 0.1)}
_SEPARATION_N = {"full": 40, "tiny": 5}

WORKLOADS = ("parity-split", "clique", "products")


def build(nfai, name: str, seed: int, size: str = "full") -> Workload:
    """Generate and serialise the workload's bundles (the ``setup_s`` work)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    ser = nfai.serialize_bundle
    tag = f"{name}/{seed}"
    w = Workload(name)

    def instance(label, bundle, graph=None, empty=None):
        w.instances.append(Instance(label, ser(bundle), bundle.automata, graph, empty))

    def jobs(label, bundle, constructions):
        text = ser(bundle)
        for c in constructions:
            w.product_jobs.append(ProductJob(label, text, bundle.automata, c))

    def clique(label, k, n, p):
        g = clique_graph(nfai, n, p, f"{tag}/{label}")
        return nfai.clique_bundle(g, k), (n, g.edges, k)

    if name == "parity-split":
        s = _PARITY[size]
        instance("k2", parity_split(nfai, 2, *s["p2"], f"{tag}/k2"), empty=True)
        instance("k3", parity_split(nfai, 3, *s["p3"], f"{tag}/k3"), empty=True)
        instance("control", parity_matched(nfai, *s["ctl"], f"{tag}/control"))
        jobs("k2-product", parity_split(nfai, 2, *s["prod"], f"{tag}/product"), ALL_CONSTRUCTIONS)
    elif name == "clique":
        for (label, k, n, p) in _CLIQUE[size]:
            instance(label, *clique(label, k, n, p))
        bundle, _ = clique("product", *_CLIQUE_PRODUCT[size])
        jobs("k4-product", bundle, ALL_CONSTRUCTIONS)
    else:
        sep = separation(nfai, _SEPARATION_N[size], f"{tag}/separation")
        bundle, graph = clique("sparse-k4", *_PRODUCTS_CLIQUE[size])
        instance("separation", sep)
        instance("sparse-k4", bundle, graph)
        jobs("separation", sep, ALL_CONSTRUCTIONS)
        jobs("sparse-k4", bundle, ("nodding",))
    return w


# --- known answers --------------------------------------------------------------

def _adjacency(a) -> Dict[tuple, tuple]:
    adj: Dict[tuple, set] = {}
    for (q, letter, d) in a.transitions:
        adj.setdefault((q, letter), set()).add(d)
    return {key: tuple(sorted(v)) for key, v in adj.items()}


def least_common_word(automata, max_len: int) -> Optional[tuple]:
    """Shortlex-least word accepted by every component, by simulating state
    sets on every word in shortlex order up to ``max_len``."""
    adjs = [_adjacency(a) for a in automata]
    letters = range(automata[0].n_letters)
    for length in range(max_len + 1):
        for word in itertools.product(letters, repeat=length):
            for a, adj in zip(automata, adjs):
                current = {a.initial}
                for letter in word:
                    current = {d for q in current for d in adj.get((q, letter), ())}
                if not current & a.finals:
                    break
            else:
                return word
    return None


def first_clique(n: int, edges: frozenset, k: int) -> Optional[tuple]:
    """First k-clique in itertools.combinations order; it spells the
    decider's lexicographically least shortest witness."""
    for combo in itertools.combinations(range(n), k):
        if all(pair in edges for pair in itertools.combinations(combo, 2)):
            return combo
    return None


def nodding_counts(automata) -> Tuple[int, int, bool]:
    """(accessible states, accessible transitions, non-empty) of the nodding
    product, by breadth-first search over (tuple, letter, volley).  The
    echoing product has the same skeleton and so the same counts."""
    k, adjs = len(automata), [_adjacency(a) for a in automata]
    start = (tuple(a.initial for a in automata), None, 0)
    seen, queue, count, nonempty = {start}, deque([start]), 0, False
    while queue:
        tup, letter, volley = queue.popleft()
        if volley == 0:
            nonempty |= all(q in a.finals for q, a in zip(tup, automata))
            moves = [(s, 0) for s in range(automata[0].n_letters)]
        else:
            moves = [(letter, volley)]
        for (s, comp) in moves:
            for d in adjs[comp].get((tup[comp], s), ()):
                nxt = (tup[:comp] + (d,) + tup[comp + 1:], s, (comp + 1) % k)
                if nxt[2] == 0:
                    nxt = (nxt[0], None, 0)
                count += 1
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen), count, nonempty


def direct_counts(automata) -> Tuple[int, int, bool]:
    """Accessible states and transitions of the direct product."""
    adjs = [_adjacency(a) for a in automata]
    start = tuple(a.initial for a in automata)
    seen, queue, count = {start}, deque([start]), 0
    while queue:
        tup = queue.popleft()
        for s in range(automata[0].n_letters):
            for nxt in itertools.product(*[adj.get((q, s), ()) for q, adj in zip(tup, adjs)]):
                count += 1
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    nonempty = any(all(q in a.finals for q, a in zip(t, automata)) for t in seen)
    return len(seen), count, nonempty


def known_answers(w: Workload) -> None:
    """Fill in every instance's verdict and witness and every product job's
    expected counts, from the code above only."""
    for inst in w.instances:
        if inst.empty:
            continue  # empty by construction
        if inst.graph is not None:
            inst.witness = first_clique(*inst.graph)
        else:
            inst.witness = least_common_word(inst.automata, 2)
            if inst.witness is None:
                raise RuntimeError(f"{w.name}/{inst.name}: planted witness not found")
        inst.empty = inst.witness is None
    cache: Dict[tuple, tuple] = {}
    for job in w.product_jobs:
        if job.name == "separation" and job.automata[0].n_states == _SEPARATION_N["full"]:
            job.transitions = SEPARATION_TRANSITIONS[job.construction]
            job.nonempty = True
            continue
        kind = "direct" if job.construction == "direct" else "nodding"
        key = (job.name, kind)
        if key not in cache:
            cache[key] = (direct_counts if kind == "direct" else nodding_counts)(job.automata)
        states, transitions, nonempty = cache[key]
        job.nonempty = nonempty
        if job.construction in ("nodding", "echoing", "direct"):
            job.states, job.transitions = states, transitions


def size_bound_ok(construction: str, stats) -> bool:
    """The constructions' accessible-transition bounds, the inequalities
    ``nfai bench`` asserts, plus m_leq_k <= n^2."""
    k, m, n = stats.k, stats.n_transitions_max, stats.n_states_max
    t = stats.transitions_accessible
    if construction in ("nodding", "echoing"):
        return t <= k * m * n ** (k - 1)
    if construction in ("catchup", "leapfrog"):
        return stats.m_leq_k <= n * n and t <= 2 * k * stats.n_letters ** k * stats.m_leq_k * n ** (k - 1)
    return t <= m ** k
