"""Reference implementations and fixtures the tests hold the product to.

The set-based references of Alg. 2 (:mod:`oracles.pseudo_iso`), of
Ullmann's verifier (:mod:`oracles.ullmann`) and of Alg. 1
(:mod:`oracles.nbm`), of the Sec. 6.2 label histogram
(:mod:`oracles.histogram`) and of the Eqn. (7) bound
(:mod:`oracles.bounds`), the exact mappings of Section 4.1
(:mod:`oracles.state_search`), networkx conversion
(:mod:`oracles.interop`) and graph fixtures (:mod:`oracles.graphs`).
They are the readable form of what ``repro.matching.kernels`` compiles,
kept for the differential tests and ``benchmarks/bench_kernels.py``; no
code under ``src/`` imports them.  This package holds no ``test_*.py``.
"""
