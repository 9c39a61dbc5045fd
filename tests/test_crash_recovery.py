"""Crash-recovery sweep: kill the process-model at every injection point
of a create+append+delete workload, recover, and require bit-identical
answers.

The workload commits five generations: 1 = bulk-loaded create, 2 = an
incremental batch ``extend`` (path-local splits under one group
commit), 3 = a single-graph incremental ``append``, 4 = a batch
``delete_many`` (shrink-or-keep closures plus underflow merges under
one group commit), 5 = a forced ``compact`` — so every injection point
along the insert/split/delete/merge/compaction WAL traffic is swept.
For every crash point the recovered index must land on a *committed
generation* (or the empty pre-commit state), pass a deep ``fsck``, and
answer subgraph and k-NN queries exactly like an uncrashed oracle of
that generation.

The full sweep runs in CI under ``REPRO_CRASH_SWEEP=full``; by default
a deterministic sample keeps the tier-1 run fast.  Every test here is
marked ``crash`` so CI can schedule the sweep separately (``-m crash``
/ ``-m "not crash"``).
"""

import os

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.storage.faultfs import FaultInjector, FaultPlan, SimulatedCrash

pytestmark = pytest.mark.crash

_CONFIG = ChemicalConfig(mean_vertices=10, large_fraction=0.0)
_BASE = generate_chemical_database(12, seed=7, config=_CONFIG)
_EXTRA = generate_chemical_database(6, seed=9, config=_CONFIG)
_QUERIES = [_BASE[3], _EXTRA[2], _BASE[0]]
#: Generation 4's victims: spread across the tree so that at
#: min_fanout=2 several leaves underflow and merge/redistribute.
_VICTIMS = [1, 3, 5, 7, 9, 11, 13]
_GENERATIONS = (1, 2, 3, 4, 5)


def _build(path, opener=None, upto=5):
    """The workload under test: create generation 1, incrementally
    extend generation 2 (a batch under one group commit, forcing node
    splits at max_fanout=4), append generation 3 (single graph),
    batch-delete generation 4 (shrink-or-keep closures plus underflow
    merges, one group commit), force-compact generation 5.

    A tiny page size and cache force WAL spills, free-list churn and
    multi-page record chains — the paths a crash must not corrupt.
    (144-byte pages: in record format 4 every node record and about half
    the graph records overflow into chains behind their slots, and the
    other graph records share record pages.)
    """
    tree = bulk_load(_BASE, min_fanout=2, max_fanout=4)
    disk = DiskCTree.create(tree, path, page_size=144, cache_pages=6,
                            opener=opener)
    if upto >= 2:
        disk.extend(_EXTRA[:5])
    if upto >= 3:
        disk.extend([_EXTRA[5]])
    if upto >= 4:
        disk.delete_many(_VICTIMS, auto_compact=False)
    if upto >= 5:
        disk.compact(force=True)
    disk.close()


def _answers(path):
    """Generation plus the full answer fingerprint of an index."""
    with DiskCTree.open(path) as disk:
        generation = disk.generation
        fingerprint = []
        for q in _QUERIES:
            answers, _ = disk.subgraph_query(q)
            fingerprint.append(sorted(answers))
        knn, _ = disk.knn_query(_QUERIES[0], 3)
        fingerprint.append(knn)
    return generation, fingerprint


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Uncrashed reference answers for every committed generation."""
    root = tmp_path_factory.mktemp("oracle")
    answers = {}
    for generation in _GENERATIONS:
        path = root / f"g{generation}.ctp"
        _build(path, upto=generation)
        answers[generation] = _answers(path)[1]
    return answers


def _sweep_points():
    counter = FaultInjector.counting()
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _build(os.path.join(tmp, "count.ctp"), opener=counter.opener)
    total = counter.ops
    if os.environ.get("REPRO_CRASH_SWEEP") == "full":
        return total, list(range(1, total + 1))
    # Deterministic sample: every 20th point plus the edges.  A fixed
    # stride, not a fraction of the total, keeps the sampled test ids
    # when a storage change moves the op count.
    points = sorted(set(range(1, total + 1, 20))
                    | {1, 2, 3, total - 1, total})
    return total, points


_TOTAL_OPS, _POINTS = _sweep_points()


class TestCrashSweep:
    @pytest.mark.parametrize("crash_at", _POINTS)
    def test_recovers_to_committed_generation(self, tmp_path, oracle,
                                              crash_at):
        path = tmp_path / "crash.ctp"
        injector = FaultInjector(FaultPlan(crash_at_op=crash_at,
                                           seed=crash_at))
        with pytest.raises(SimulatedCrash):
            _build(path, opener=injector.opener)

        result = DiskCTree.recover(path, deep=True)
        if not result.storage.initialized:
            # Crash predates any durable state: nothing to check.
            return
        assert result.ok, (result.storage.summary(),
                           result.fsck and result.fsck.errors)
        if result.fsck.generation == 0:
            # Recovered to the pre-first-commit empty state.
            return
        generation, fingerprint = _answers(path)
        assert generation in _GENERATIONS
        assert fingerprint == oracle[generation], (
            f"crash at op {crash_at}/{_TOTAL_OPS}: generation "
            f"{generation} answers diverge from the uncrashed oracle"
        )

    @pytest.mark.parametrize("crash_at", _POINTS[::4])
    def test_recovery_idempotent_and_reopenable(self, tmp_path, crash_at):
        path = tmp_path / "crash.ctp"
        injector = FaultInjector(FaultPlan(crash_at_op=crash_at,
                                           seed=crash_at))
        with pytest.raises(SimulatedCrash):
            _build(path, opener=injector.opener)
        first = DiskCTree.recover(path)
        if not first.storage.initialized:
            return
        again = DiskCTree.recover(path)
        assert again.storage.action == "none"
        if first.fsck.generation > 0:
            # auto_recover on open must also be a no-op now.
            with DiskCTree.open(path) as disk:
                assert disk.generation == first.fsck.generation


class TestWorkloadCoverage:
    def test_workload_exercises_delete_machinery_without_rebuilds(
            self, tmp_path):
        """The swept workload really drives the delete-era paths:
        generation 4 forces underflow merges, generation 5 is exactly
        one compaction."""
        from repro.obs.metrics import global_registry

        registry = global_registry()
        names = ("ctree.disk.deletes", "ctree.disk.underflow_merges",
                 "ctree.disk.compactions")
        before = {n: registry.counter(n).value for n in names}
        _build(tmp_path / "coverage.ctp")
        delta = {n: registry.counter(n).value - before[n] for n in names}
        assert delta["ctree.disk.deletes"] == len(_VICTIMS)
        assert delta["ctree.disk.underflow_merges"] > 0
        assert delta["ctree.disk.compactions"] == 1


class TestCrashReplayDeterminism:
    def test_same_plan_same_wreckage(self, tmp_path):
        """A (crash_at, seed) plan is fully replayable: both the torn
        page file and the torn WAL are byte-identical across runs."""
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.ctp"
            injector = FaultInjector(FaultPlan(crash_at_op=_TOTAL_OPS // 2,
                                               seed=13))
            with pytest.raises(SimulatedCrash):
                _build(path, opener=injector.opener)
            blobs.append((path.read_bytes(),
                          (tmp_path / f"{tag}.ctp.wal").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_open_auto_recovers_after_crash(self, tmp_path, oracle):
        path = tmp_path / "auto.ctp"
        injector = FaultInjector(FaultPlan(crash_at_op=_TOTAL_OPS - 1,
                                           seed=3))
        with pytest.raises(SimulatedCrash):
            _build(path, opener=injector.opener)
        # Plain open() heals the index transparently.
        generation, fingerprint = _answers(path)
        assert fingerprint == oracle[generation]

    def test_open_without_auto_recover_refuses(self, tmp_path):
        path = tmp_path / "refuse.ctp"
        injector = FaultInjector(FaultPlan(crash_at_op=_TOTAL_OPS - 1,
                                           seed=3))
        with pytest.raises(SimulatedCrash):
            _build(path, opener=injector.opener)
        from repro.exceptions import PersistenceError

        with pytest.raises(PersistenceError, match="recover"):
            DiskCTree.open(path, auto_recover=False)
