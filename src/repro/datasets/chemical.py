"""Synthetic chemical-compound graphs calibrated to the paper's dataset.

The paper evaluates on the NCI/NIH AIDS Antiviral Screen dataset (~42,000
molecules), which we cannot download in this offline environment.  This
module generates vertex-labeled molecule-like graphs matched to the
statistics the paper reports:

- average ~25 vertices and ~27 edges per graph (hydrogens omitted),
- a maximum in the low hundreds of vertices,
- 62 distinct vertex labels with a heavy skew toward C, O and N,
- sparse ring-and-chain topology (trees plus a few ring-closing edges).

Filter selectivity in both C-tree and GraphGrep depends exactly on these
moments (size distribution, label skew, sparsity), so the substitution
preserves the behavior the experiments measure.  See DESIGN.md §3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigError
from repro.graphs.graph import Graph

#: Element frequencies approximating the AIDS antiviral screen's heavy-atom
#: distribution.  The long tail of rare elements brings the label count to
#: 62, the paper's figure.
_COMMON_ELEMENTS: list[tuple[str, float]] = [
    ("C", 0.720),
    ("O", 0.100),
    ("N", 0.095),
    ("S", 0.025),
    ("Cl", 0.015),
    ("P", 0.010),
    ("F", 0.008),
    ("Br", 0.006),
    ("Si", 0.004),
    ("I", 0.003),
]

_RARE_ELEMENTS: list[str] = [
    "B", "Se", "As", "Sn", "Pb", "Hg", "Cu", "Zn", "Fe", "Co",
    "Ni", "Mn", "Cr", "Mo", "W", "V", "Ti", "Al", "Mg", "Ca",
    "Na", "K", "Li", "Ba", "Sr", "Cs", "Rb", "Be", "Sc", "Y",
    "Zr", "Nb", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sb",
    "Te", "La", "Ce", "Pr", "Nd", "Sm", "Eu", "Gd", "Tb", "Dy",
    "Ho", "Er",
]

#: Total probability mass spread uniformly over the rare tail.
_RARE_MASS = 1.0 - sum(w for _, w in _COMMON_ELEMENTS)


@dataclass(frozen=True)
class ChemicalConfig:
    """Knobs for the compound generator, defaulting to the paper's stats."""

    mean_vertices: float = 25.0
    #: extra (ring-closing) edges per vertex beyond the spanning tree;
    #: 27 edges on 25 vertices ~ (n - 1) + 0.12 n
    ring_edge_rate: float = 0.12
    #: typical ring sizes (5- and 6-membered rings dominate chemistry)
    ring_sizes: tuple[int, ...] = (5, 6, 6)
    min_vertices: int = 4
    #: fraction of unusually large molecules, and their size multiplier —
    #: reproduces the dataset's long tail (max 222 vertices at mean 25)
    large_fraction: float = 0.01
    large_multiplier: float = 6.0


def _sample_label(rng: random.Random) -> str:
    r = rng.random()
    acc = 0.0
    for element, weight in _COMMON_ELEMENTS:
        acc += weight
        if r < acc:
            return element
    return _RARE_ELEMENTS[rng.randrange(len(_RARE_ELEMENTS))]


def _sample_size(rng: random.Random, config: ChemicalConfig) -> int:
    mean = config.mean_vertices
    if rng.random() < config.large_fraction:
        mean *= config.large_multiplier
    # Poisson via Knuth (means here are small enough).
    size = _poisson(rng, mean)
    return max(config.min_vertices, size)


def _poisson(rng: random.Random, mean: float) -> int:
    if mean <= 0:
        return 0
    # For large means, normal approximation avoids O(mean) work.
    if mean > 60:
        return max(0, round(rng.gauss(mean, mean ** 0.5)))
    import math

    threshold = math.exp(-mean)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate_compound(
    rng: random.Random, config: Optional[ChemicalConfig] = None
) -> Graph:
    """One random molecule-like connected graph."""
    config = config or ChemicalConfig()
    n = _sample_size(rng, config)
    graph = Graph([_sample_label(rng) for _ in range(n)])

    # Spanning tree backbone with chemistry-like low degrees: attach each new
    # vertex to a random earlier vertex, strongly preferring low degree.
    for v in range(1, n):
        candidates = list(range(v))
        weights = [1.0 / (1 + 3 * graph.degree(u)) for u in candidates]
        graph.add_edge(_weighted_choice(rng, candidates, weights), v)

    # Ring closures: connect vertices at tree distance ring_size - 1.
    extra_edges = _poisson(rng, config.ring_edge_rate * n)
    for _ in range(extra_edges):
        _close_ring(graph, rng, config)
    return graph


def _close_ring(graph: Graph, rng: random.Random, config: ChemicalConfig) -> None:
    ring_size = rng.choice(config.ring_sizes)
    start = rng.randrange(graph.num_vertices)
    levels = graph.bfs_levels(start, max_level=ring_size - 1)
    ring_partners = [
        v for v, lvl in levels.items()
        if lvl == ring_size - 1 and not graph.has_edge(start, v)
    ]
    if not ring_partners:
        # Fall back to any non-adjacent vertex at distance >= 2.
        ring_partners = [
            v for v, lvl in levels.items()
            if lvl >= 2 and not graph.has_edge(start, v)
        ]
    if ring_partners:
        graph.add_edge(start, rng.choice(ring_partners))


def _weighted_choice(
    rng: random.Random, items: list[int], weights: list[float]
) -> int:
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if r < acc:
            return item
    return items[-1]


def generate_chemical_database(
    count: int,
    seed: int = 0,
    config: Optional[ChemicalConfig] = None,
) -> list[Graph]:
    """A database of ``count`` molecule-like graphs (deterministic in
    ``seed``)."""
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    rng = random.Random(seed)
    config = config or ChemicalConfig()
    graphs = []
    for i in range(count):
        g = generate_compound(rng, config)
        g.name = f"compound-{i}"
        graphs.append(g)
    return graphs
