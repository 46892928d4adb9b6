"""Crossover and mutation (Figures 8-9), including size-bound invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.plan import random_tree, selective, sequential, tree_size
from repro.plan.tree import iter_nodes, preorder_path, replace_at, subtree_at
from repro.planner import crossover, mutate, random_node_path

ACTS = ["A", "B", "C"]


class TestCrossover:
    def test_skipped_below_rate(self):
        a, b = sequential("A", "B"), sequential("C", "C")
        out_a, out_b = crossover(a, b, rng=0, crossover_rate=0.0)
        assert out_a is a and out_b is b

    def test_swaps_subtrees(self, rng):
        a = sequential("A", "A", "A")
        b = sequential("B", "B", "B")
        for _ in range(20):
            ca, cb = crossover(a, b, rng, crossover_rate=1.0)
            if ca != a:
                # material from b must appear in child a, and vice versa
                assert "B" in ca.activities() or "A" in cb.activities()
                break
        else:
            pytest.fail("crossover never exchanged material")

    def test_node_count_conserved(self, rng):
        for _ in range(50):
            a = random_tree(ACTS, max_size=20, rng=rng)
            b = random_tree(ACTS, max_size=20, rng=rng)
            ca, cb = crossover(a, b, rng, smax=40, crossover_rate=1.0)
            if (ca, cb) != (a, b):
                assert ca.size + cb.size == a.size + b.size

    def test_smax_failure_keeps_parents(self, rng):
        big = random_tree(ACTS, size=40, max_size=40, rng=rng)
        small = random_tree(ACTS, size=2, max_size=40, rng=rng)
        results = {crossover(big, small, rng, smax=40, crossover_rate=1.0)
                   for _ in range(30)}
        for ca, cb in results:
            assert ca.size <= 40 and cb.size <= 40

    def test_parents_never_mutated(self, rng):
        a = sequential("A", selective("B", "C"))
        b = sequential("C", "A")
        frozen_a, frozen_b = a, b
        crossover(a, b, rng, crossover_rate=1.0)
        assert a == frozen_a and b == frozen_b


class TestMutation:
    def test_zero_rate_is_identity(self, rng):
        tree = sequential("A", "B")
        assert mutate(tree, ACTS, rng, mutation_rate=0.0) is tree

    def test_rate_one_replaces_root(self):
        tree = sequential("A", "B", "C")
        mutated = mutate(tree, ["Z"], rng=3, mutation_rate=1.0, smax=40)
        # The root is always selected at rate 1, so the result is a fresh
        # random tree over ["Z"] (possibly by way of a failed size check).
        assert set(mutated.activities()) <= {"Z", "A", "B", "C"}

    def test_respects_smax(self, rng):
        for _ in range(100):
            tree = random_tree(ACTS, max_size=40, rng=rng)
            mutated = mutate(tree, ACTS, rng, smax=40, mutation_rate=0.3)
            assert mutated.size <= 40

    def test_small_rate_usually_identity(self, rng):
        tree = random_tree(ACTS, size=10, rng=rng)
        unchanged = sum(
            mutate(tree, ACTS, rng, mutation_rate=0.001) == tree
            for _ in range(100)
        )
        assert unchanged >= 90

    def test_deterministic_under_seed(self):
        tree = random_tree(ACTS, size=15, rng=1)
        a = mutate(tree, ACTS, rng=9, mutation_rate=0.5)
        b = mutate(tree, ACTS, rng=9, mutation_rate=0.5)
        assert a == b


class TestRandomNodePath:
    def test_uniform_over_nodes(self, rng):
        tree = sequential("A", "B")  # 3 nodes
        seen = {random_node_path(tree, rng) for _ in range(100)}
        assert seen == {(), (0,), (1,)}


@given(
    seed=st.integers(0, 10_000),
    rate=st.floats(0.0, 1.0),
    smax=st.integers(5, 60),
)
@settings(max_examples=150, deadline=None)
def test_mutation_never_exceeds_smax(seed, rate, smax):
    rng = np.random.default_rng(seed)
    tree = random_tree(ACTS, max_size=smax, rng=rng)
    mutated = mutate(tree, ACTS, rng, smax=smax, mutation_rate=rate)
    assert 1 <= mutated.size <= smax


@given(seed=st.integers(0, 10_000), smax=st.integers(5, 60))
@settings(max_examples=150, deadline=None)
def test_crossover_never_exceeds_smax(seed, smax):
    rng = np.random.default_rng(seed)
    a = random_tree(ACTS, max_size=smax, rng=rng)
    b = random_tree(ACTS, max_size=smax, rng=rng)
    ca, cb = crossover(a, b, rng, smax=smax, crossover_rate=1.0)
    assert ca.size <= smax and cb.size <= smax


# -- pre-order node lookup from stored subtree sizes ------------------------- #
def _reference_random_node_path(tree, rng):
    """Uniform node pick by listing every pre-order path."""
    paths = [path for path, _ in iter_nodes(tree)]
    return paths[int(rng.integers(len(paths)))]


def _reference_mutate(tree, activities, rng, smax, mutation_rate, max_branch=4):
    """Figure-9 mutation with one scalar draw per pre-order node."""
    selected = [path for path, _ in iter_nodes(tree) if rng.random() < mutation_rate]
    if not selected:
        return tree
    selected.sort(key=len)
    kept = []
    for path in selected:
        if not any(path[: len(anc)] == anc for anc in kept):
            kept.append(path)
    current = tree
    for path in kept:
        replacement = random_tree(
            activities, max_size=smax, rng=rng, max_branch=max_branch
        )
        candidate = replace_at(current, path, replacement)
        if candidate.size <= smax:
            current = candidate
    return current


def _reference_crossover(a, b, rng, smax, crossover_rate):
    if rng.random() >= crossover_rate:
        return a, b
    path_a = _reference_random_node_path(a, rng)
    path_b = _reference_random_node_path(b, rng)
    child_a = replace_at(a, path_a, subtree_at(b, path_b))
    child_b = replace_at(b, path_b, subtree_at(a, path_a))
    if child_a.size > smax or child_b.size > smax:
        return a, b
    return child_a, child_b


class TestPreorderPath:
    def test_matches_iter_nodes_for_every_index(self, rng):
        for size in (1, 2, 3, 7, 20, 40):
            for _ in range(10):
                tree = random_tree(ACTS, size=size, max_size=40, rng=rng)
                paths = [path for path, _ in iter_nodes(tree)]
                assert len(paths) == tree.size
                for index, path in enumerate(paths):
                    assert preorder_path(tree, index) == path

    def test_out_of_range_raises(self):
        tree = sequential("A", "B")
        for index in (-1, 3):
            with pytest.raises(PlanError):
                preorder_path(tree, index)

    def test_sizes_are_stored_and_exact(self, rng):
        for _ in range(30):
            tree = random_tree(ACTS, max_size=40, rng=rng)
            assert tree.size == sum(1 for _ in iter_nodes(tree))


class TestOperatorsMatchPreorderReference:
    """The size-based operators return the same trees, and leave the RNG in
    the same state, as the list-every-path formulation."""

    def test_random_node_path(self):
        trees = [random_tree(ACTS, max_size=40, rng=s) for s in range(40)]
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        for tree in trees:
            assert random_node_path(tree, ours) == _reference_random_node_path(
                tree, ref
            )
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("rate", [0.001, 0.05, 0.3, 1.0])
    def test_mutate(self, rate):
        trees = [random_tree(ACTS, max_size=40, rng=s) for s in range(60)]
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        for tree in trees:
            got = mutate(tree, ACTS, ours, smax=40, mutation_rate=rate)
            want = _reference_mutate(tree, ACTS, ref, smax=40, mutation_rate=rate)
            assert got.struct_key() == want.struct_key()
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("smax", [10, 40])
    def test_crossover(self, smax):
        trees = [random_tree(ACTS, max_size=smax, rng=s) for s in range(60)]
        ours, ref = np.random.default_rng(17), np.random.default_rng(17)
        for a, b in zip(trees[::2], trees[1::2]):
            got = crossover(a, b, ours, smax=smax, crossover_rate=0.7)
            want = _reference_crossover(a, b, ref, smax=smax, crossover_rate=0.7)
            assert [t.struct_key() for t in got] == [t.struct_key() for t in want]
        assert ours.random() == ref.random()
