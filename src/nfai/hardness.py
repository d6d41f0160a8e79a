"""Hard and random instance generators.

The clique reduction turns "does G have a k-clique?" into an intersection
instance of k-1 DFA over the vertex alphabet: a common word encodes a vertex
sequence, and automaton i checks that vertex i is adjacent to every later
vertex.  These are the instances on which per-letter-dense automata make the
direct product blow up, so they double as benchmark inputs.

Random generators are seed-deterministic so benchmark and CI runs reproduce
bit for bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List

from .automata import InstanceBundle, Nfa
from .fileformat import FormatError, _strip, fields, once
from .products import check_budget, state_budget


@dataclass(frozen=True)
class UndirectedGraph:
    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError(f"negative vertex count {self.n_vertices}")
        canon = set()
        for (u, v) in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def clique_to_dfas(g: UndirectedGraph, k: int) -> List[Nfa]:
    """Build k-1 DFA over the vertex alphabet whose languages intersect
    exactly in the encodings of k-cliques of ``g``.

    Automaton i (i < k-2): a chain of i+1 states on arbitrary letters, a
    fan-out state per vertex v, and self-loops on v's neighbours; every fan
    state is final.  The last automaton replaces the self-loops by a single
    edge into a unique final state, which also pins the word length to k.
    Its n·k(k-1)/2 + 2|E|(k-1) transitions are checked against the state
    budget before any is built.
    """
    if k < 3:
        raise ValueError("the clique reduction needs k >= 3")
    n = g.n_vertices
    count = n * k * (k - 1) // 2 + 2 * len(g.edges) * (k - 1)
    check_budget(count, f"clique reduction has {count} transitions")
    neighbours: List[List[int]] = [[] for _ in range(n)]
    for (u, v) in g.edges:  # one pass over the edges, not one per vertex
        neighbours[u].append(v)
        neighbours[v].append(u)
    automata: List[Nfa] = []
    for i in range(k - 1):
        chain, last = i + 1, i == k - 2
        final = chain + n  # the last automaton's only final state
        transitions = [(pos, v, pos + 1) for pos in range(chain - 1) for v in range(n)]
        transitions += [(chain - 1, v, chain + v) for v in range(n)]
        transitions += [(chain + v, w, final if last else chain + v) for v in range(n) for w in neighbours[v]]
        finals = {final} if last else range(chain, chain + n)
        automata.append(Nfa(chain + n + last, n, tuple(transitions), 0, frozenset(finals)))
    return automata


def clique_bundle(g: UndirectedGraph, k: int) -> InstanceBundle:
    return InstanceBundle(tuple(clique_to_dfas(g, k)))


def brute_force_has_clique(g: UndirectedGraph, k: int) -> bool:
    """Enumerate k-subsets of vertices and test pairwise adjacency."""
    if k <= 1:
        return k == 1 and g.n_vertices >= 1
    for combo in itertools.combinations(range(g.n_vertices), k):
        if all(g.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def _seed_key(seed):
    """random.Random only takes scalar seeds; spell anything else out."""
    return seed if isinstance(seed, (int, float, str, bytes, bytearray)) else repr(seed)


def random_nfa(n_states: int, n_letters: int, density: float, seed) -> Nfa:
    """Seeded random NFA with round(density * l * n^2) transitions.

    density=1 gives the complete transition relation.  The initial state is
    0; each state is final with probability 1/2, with one forced final when
    the coin flips all come up empty.  Identical seeds give identical
    automata.  A count over the state budget is refused before the draw,
    which samples indices into the l * n^2 triples without listing them.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must lie in [0, 1]")
    if n_states < 1 or n_letters < 0:
        raise ValueError("need at least one state and a non-negative alphabet")
    universe = n_letters * n_states * n_states
    count = round(density * universe)
    check_budget(count, f"random NFA draws {count} transitions")
    rng = random.Random(_seed_key(seed))
    row = n_letters * n_states
    transitions = [(j // row, j // n_states % n_letters, j % n_states) for j in rng.sample(range(universe), count)]
    finals = {q for q in range(n_states) if rng.random() < 0.5}
    if not finals:
        finals = {rng.randrange(n_states)}
    return Nfa(n_states, n_letters, tuple(transitions), 0, frozenset(finals))


def random_bundle(k: int, n_states: int, n_letters: int, density: float, seed) -> InstanceBundle:
    """Bundle of k seed-deterministic random NFA (component i uses seed+i
    mixing, so the bundle is reproducible from one seed)."""
    return InstanceBundle(
        tuple(random_nfa(n_states, n_letters, density, (seed, i)) for i in range(k))
    )


def random_graph(n_vertices: int, edge_prob: float, seed) -> UndirectedGraph:
    """Seeded Erdos-Renyi graph: each pair is an edge with probability
    edge_prob, decided in lexicographic pair order.  Refuses the vertices,
    then the p * n(n-1)/2 expected edges, over the state budget first."""
    check_budget(n_vertices, f"random graph has {n_vertices} vertices")
    edges = edge_prob * n_vertices * (n_vertices - 1) / 2
    check_budget(edges, f"random graph expects {edges:.0f} edges")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(_seed_key(seed))
    edges = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if rng.random() < edge_prob
    ]
    return UndirectedGraph(n_vertices, frozenset(edges))


# --- graph files -------------------------------------------------------------

def parse_graph(text: str) -> UndirectedGraph:
    """Graph text format: first line ``graph n``, then ``edge u v`` lines.
    A vertex count over ``state_budget()`` is refused at its line, before
    the reduction allocates per vertex."""
    n = None
    edges = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        if parts[0] == "graph":
            n = once(n, no, parts, fields(no, parts, "one vertex count", 1)[0])
            if n < 0:
                raise FormatError(f"negative vertex count {n}", no)
            if n > (limit := state_budget()):
                raise FormatError(f"{n} vertices, over the state budget of {limit}", no)
        elif parts[0] == "edge":
            if n is None:
                raise FormatError("'edge' before 'graph' line", no)
            u, v = fields(no, parts, "two vertices", 2)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise FormatError(f"bad edge ({u}, {v})", no)
            edges.append((u, v))
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", no)
    if n is None:
        raise FormatError("missing 'graph' line", 1)
    return UndirectedGraph(n, frozenset(edges))


def serialize_graph(g: UndirectedGraph) -> str:
    lines = [f"graph {g.n_vertices}"]
    for (u, v) in sorted(g.edges):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
