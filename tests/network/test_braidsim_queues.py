"""The close-first ready-open queues vs the policy sort oracle.

``_FifoReadyQueue`` (Policy 5) and ``_BucketReadyQueue`` (Policy 6)
replace the per-fixpoint-iteration full sort with incremental
maintenance; these tests drive them through randomized add / remove /
re-stamp churn and assert the produced order matches
``Policy.open_sort_key`` — the same oracle the reference simulator
sorts with — at every step.  Full-simulation equivalence for the
policies that use the queues is covered by the golden tests, which
compare both engines against the reference loop on every
``tiny_grid()`` point.
"""

import random

from repro.network import (
    POLICIES,
    BraidSimConfig,
    simulate_braids,
    simulate_braids_reference,
)
from repro.network.braidsim import _BucketReadyQueue, _FifoReadyQueue
from repro.network.mesh import BraidMesh
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit

N_OPS = 64


def oracle_order(policy_num, ready, crit, length, arrival):
    policy = POLICIES[policy_num]
    key = policy.open_sort_key(
        crit.__getitem__,
        length.__getitem__,
        arrival.__getitem__,
        [crit[op] for op in ready],
    )
    return sorted(ready, key=key)


def churn(make_queue, policy_num, crit, length, seed):
    """Random add/remove/restamp schedule, checking order every step."""
    rng = random.Random(seed)
    arrival = [0] * N_OPS
    queue = make_queue(arrival)
    stamp = 0
    ready: set[int] = set()
    for _ in range(400):
        action = rng.random()
        if action < 0.5 and len(ready) < N_OPS:
            op = rng.choice([i for i in range(N_OPS) if i not in ready])
            stamp += 1
            arrival[op] = stamp
            ready.add(op)
            queue.add(op)
        elif action < 0.75 and ready:
            op = rng.choice(sorted(ready))
            ready.discard(op)
            queue.remove(op)
        elif ready:
            op = rng.choice(sorted(ready))
            stamp += 1
            arrival[op] = stamp
            queue.restamp(op)
        got = queue.ordered(ready)
        want = oracle_order(policy_num, ready, crit, length, arrival)
        assert got == want, (got, want)
    return arrival


class TestFifoReadyQueue:
    def test_matches_policy5_oracle_under_churn(self):
        arrival = [0] * N_OPS
        queue = _FifoReadyQueue(arrival)
        crit = [0] * N_OPS
        length = [0] * N_OPS

        rng = random.Random(7)
        stamp = 0
        ready: set[int] = set()
        for _ in range(500):
            action = rng.random()
            if action < 0.5 and len(ready) < N_OPS:
                op = rng.choice([i for i in range(N_OPS) if i not in ready])
                stamp += 1
                arrival[op] = stamp
                ready.add(op)
                queue.add(op)
            elif action < 0.75 and ready:
                op = rng.choice(sorted(ready))
                ready.discard(op)
                queue.remove(op)
            elif ready:
                op = rng.choice(sorted(ready))
                stamp += 1
                arrival[op] = stamp
                queue.restamp(op)
            got = queue.ordered(ready)
            want = oracle_order(5, ready, crit, length, arrival)
            assert got == want

    def test_compaction_preserves_order(self):
        arrival = [0] * N_OPS
        queue = _FifoReadyQueue(arrival)
        ready: set[int] = set()
        # Enough stale entries to force the compaction path repeatedly.
        for round_ in range(6):
            for op in range(N_OPS):
                arrival[op] = round_ * N_OPS + op + 1
                ready.add(op)
                queue.add(op)
            order = queue.ordered(ready)
            assert order == sorted(ready, key=arrival.__getitem__)
            for op in list(ready):
                ready.discard(op)
                queue.remove(op)
            assert queue.ordered(ready) == []


class TestBucketReadyQueue:
    def test_matches_policy6_oracle_under_churn(self):
        rng = random.Random(13)
        for seed in range(5):
            crit = [rng.randrange(6) for _ in range(N_OPS)]
            length = [rng.randrange(1, 9) for _ in range(N_OPS)]
            arrival = churn(
                lambda arr: _BucketReadyQueue(crit, length, arr),
                6,
                crit,
                length,
                seed,
            )
            assert max(arrival) >= 0  # churn completed

    def test_threshold_flip_resorts_bucket(self):
        # Two criticality groups; removing the high group flips the
        # low group from "long first" to ... it stays low-side, but the
        # *threshold value* moves onto it, flipping its length sign.
        crit = [2, 2, 1, 1, 1]
        length = [5, 3, 2, 7, 4]
        arrival = [0] * 5
        queue = _BucketReadyQueue(crit, length, arrival)
        ready: set[int] = set()
        for op in range(5):
            arrival[op] = op + 1
            ready.add(op)
            queue.add(op)
        assert queue.ordered(ready) == oracle_order(
            6, ready, crit, length, arrival
        )
        # Remove the high-criticality ops: the crit=1 bucket becomes
        # the top half and must re-sort ascending-by-length.
        for op in (0, 1):
            ready.discard(op)
            queue.remove(op)
        assert queue.ordered(ready) == oracle_order(
            6, ready, crit, length, arrival
        )


class TestCloseFirstGoldenWithDrops:
    """Drop-heavy close-first sims stay bit-identical to the seed loop.

    Drops re-stamp arrivals, which is the queues' subtlest transition
    (stale FIFO entries, bucket order-cache invalidation), so this
    hammers them specifically under both close-first policies.
    """

    def _congested(self):
        qubits = [f"q{i}" for i in range(9)]
        placement = naive_layout(qubits, GridShape(3, 3))
        c = Circuit(qubits=qubits)
        # Rotating long-range strides on a 3x3 mesh: overlapping routes
        # hold links for d cycles and starve each other into drops.
        for r in range(5):
            for i in range(9):
                j = (i + 1 + (r % 7)) % 9
                if i != j:
                    c.apply("CNOT", f"q{i}", f"q{j}")
        return c, placement

    def test_policies_5_and_6_with_aggressive_drops(self):
        circuit, placement = self._congested()
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=2)
        for policy in (5, 6):
            optimized = simulate_braids(
                circuit, placement, BraidMesh(3, 3), policy, 9,
                config=config,
            )
            reference = simulate_braids_reference(
                circuit, placement, BraidMesh(3, 3), policy, 9,
                config=config,
            )
            assert optimized == reference
            assert optimized.drops > 0  # the scenario really drops
