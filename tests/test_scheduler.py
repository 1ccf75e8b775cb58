"""Tests for the greedy lattice-surgery scheduler and throughput sim."""

from collections import deque

import numpy as np
import pytest

from repro.arch.isa import Instruction, InstructionKind
from repro.arch.qubit_plane import BlockState, QubitPlane
from repro.arch.scheduler import GreedyScheduler
from repro.arch.throughput import (
    ThroughputResult,
    random_meas_zz_stream,
    simulate_throughput,
    throughput_sweep,
)

from reference_engines import reference_route


def zz(a, b, reg=0):
    return Instruction(InstructionKind.MEAS_ZZ, (a, b), register=reg)


class TestRouting:
    def test_adjacent_qubits_routable(self):
        plane = QubitPlane(5, 5)
        sched = GreedyScheduler(plane)
        # Qubits 0 and 1 at (1,1) and (1,3): vacant (1,2) connects them.
        assert sched.try_commit(zz(0, 1), slot=0)
        assert len(sched.executing) == 1

    def test_route_blocked_by_anomaly(self):
        plane = QubitPlane(3, 5)  # single row of qubits: (1,1), (1,3)
        plane.strike(1, 2, until_slot=100)
        # All detours through rows 0/2 around (1,2) remain; block them too.
        for cell in [(0, 1), (0, 2), (0, 3), (2, 1), (2, 2), (2, 3)]:
            plane.strike(*cell, until_slot=100)
        sched = GreedyScheduler(plane)
        assert not sched.try_commit(zz(0, 1), slot=0)

    def test_route_found_around_obstacle(self):
        plane = QubitPlane(3, 5)
        plane.strike(1, 2, until_slot=100)  # direct path blocked
        sched = GreedyScheduler(plane)
        assert sched.try_commit(zz(0, 1), slot=0)  # detour via row 0 or 2

    def test_busy_qubit_blocks_commit(self):
        plane = QubitPlane(5, 5)
        sched = GreedyScheduler(plane)
        assert sched.try_commit(zz(0, 1), slot=0)
        assert not sched.try_commit(zz(1, 2, reg=1), slot=0)

    def test_disjoint_ops_run_in_parallel(self):
        plane = QubitPlane(11, 11)
        sched = GreedyScheduler(plane)
        assert sched.try_commit(zz(0, 1), slot=0)
        assert sched.try_commit(zz(10, 11, reg=1), slot=0)
        assert len(sched.executing) == 2


class TestStep:
    def test_ops_finish_after_latency(self):
        plane = QubitPlane(5, 5)
        sched = GreedyScheduler(plane, base_latency_slots=1)
        queue = deque([zz(0, 1)])
        sched.step(queue, slot=0)
        assert not queue
        assert sched.completed == 0
        sched.step(queue, slot=1)
        assert sched.completed == 1

    def test_baseline_double_latency(self):
        plane = QubitPlane(5, 5)
        sched = GreedyScheduler(plane, base_latency_slots=2)
        queue = deque([zz(0, 1)])
        sched.step(queue, slot=0)
        sched.step(queue, slot=1)
        assert sched.completed == 0
        sched.step(queue, slot=2)
        assert sched.completed == 1

    def test_expanded_qubit_doubles_latency(self):
        plane = QubitPlane(11, 11)
        plane.expand_logical(0, slot=0)
        sched = GreedyScheduler(plane, base_latency_slots=1)
        queue = deque([zz(0, 1)])
        sched.step(queue, slot=0)
        sched.step(queue, slot=1)
        assert sched.completed == 0
        sched.step(queue, slot=2)
        assert sched.completed == 1

    def test_program_order_preserved_on_conflict(self):
        plane = QubitPlane(5, 5)
        sched = GreedyScheduler(plane)
        first = zz(0, 1)
        second = zz(1, 2, reg=1)
        queue = deque([first, second])
        sched.step(queue, slot=0)
        assert second in queue and first not in queue


class TestThroughputSim:
    def test_workload_has_distinct_targets(self):
        queue = random_meas_zz_stream(100, 25, np.random.default_rng(0))
        for inst in queue:
            assert inst.targets[0] != inst.targets[1]

    def test_all_instructions_complete(self):
        res = simulate_throughput("mbbe_free", num_instructions=50,
                                  rng=np.random.default_rng(1))
        assert res.instructions == 50

    def test_baseline_half_of_mbbe_free(self):
        free = simulate_throughput("mbbe_free", 400,
                                   rng=np.random.default_rng(2))
        base = simulate_throughput("baseline", 400,
                                   rng=np.random.default_rng(2))
        assert base.throughput == pytest.approx(free.throughput / 2,
                                                rel=0.15)

    def test_q3de_without_rays_matches_mbbe_free(self):
        free = simulate_throughput("mbbe_free", 300,
                                   rng=np.random.default_rng(3))
        q3de = simulate_throughput("q3de", 300, strike_prob_per_slot=0.0,
                                   rng=np.random.default_rng(3))
        assert q3de.throughput == pytest.approx(free.throughput, rel=0.01)

    def test_heavy_rays_degrade_q3de(self):
        calm = simulate_throughput("q3de", 300, strike_prob_per_slot=1e-6,
                                   strike_duration_slots=100,
                                   rng=np.random.default_rng(4))
        stormy = simulate_throughput("q3de", 300, strike_prob_per_slot=1e-3,
                                     strike_duration_slots=100,
                                     rng=np.random.default_rng(4),
                                     max_slots=5_000)
        assert stormy.throughput < calm.throughput

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            simulate_throughput("quantum-magic")

    def test_sweep_shapes(self):
        out = throughput_sweep([1e-5, 1e-4], duration_slots=100,
                               num_instructions=120)
        assert len(out["q3de"]) == 2
        assert out["mbbe_free"][0] == out["mbbe_free"][1]
        assert out["baseline"][0] < out["mbbe_free"][0]

    def test_result_throughput_property(self):
        res = ThroughputResult("q3de", instructions=60, slots=12, strikes=0)
        assert res.throughput == 5.0


# ----------------------------------------------------------------------
# Component-labelled router vs the original BFS (the oracle)
# ----------------------------------------------------------------------
PLANE_SHAPES = [(11, 11), (7, 9), (4, 6)]


def _oracle_route(self, a, b, slot):
    return reference_route(self.plane, a, b, slot)


def _random_plane_state(plane, rng, slot):
    """Strikes, reservations and expansions, some already expired."""
    for r in range(plane.rows):
        for c in range(plane.cols):
            u = rng.random()
            if u < 0.15:
                plane.strike(r, c, until_slot=slot + int(rng.integers(1, 5)))
            elif u < 0.2:
                # A lapsed strike: still ANOMALOUS until expired.
                plane.strike(r, c, until_slot=slot - 1)
            elif u < 0.35:
                plane.block(r, c).busy_until = slot + int(
                    rng.integers(-2, 4))
    for q in range(plane.num_logical):
        if rng.random() < 0.2:
            plane.expand_logical(q, slot)


class TestRouterMatchesOracle:
    @pytest.mark.parametrize("rows,cols", PLANE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_paths_match_on_random_planes(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        plane = QubitPlane(rows, cols)
        sched = GreedyScheduler(plane)
        slot = 10
        _random_plane_state(plane, rng, slot)
        pairs = [(a, b) for a in range(plane.num_logical)
                 for b in range(plane.num_logical) if a != b]
        routed = 0
        for round_ in range(4):
            for a, b in pairs:
                pa = plane.logical_positions[a]
                pb = plane.logical_positions[b]
                want = reference_route(plane, pa, pb, slot)
                assert sched._route(pa, pb, slot) == want, (round_, a, b)
                routed += want is not None
            # Mutate blocks directly between calls, as reaction policies
            # and strike injection do outside a scheduling step.
            for _ in range(6):
                r = int(rng.integers(rows))
                c = int(rng.integers(cols))
                blk = plane.block(r, c)
                choice = rng.integers(3)
                if choice == 0:
                    plane.strike(r, c, until_slot=slot + 3)
                elif choice == 1:
                    blk.busy_until = slot + int(rng.integers(-1, 3))
                elif blk.state is BlockState.ANOMALOUS:
                    blk.anomalous_until = slot
                    plane.expire_anomalies(slot)
        assert routed > 0

    def test_unroutable_pair_returns_none(self):
        plane = QubitPlane(3, 5)
        for cell in [(1, 2), (0, 1), (0, 2), (0, 3), (2, 1), (2, 2),
                     (2, 3)]:
            plane.strike(*cell, until_slot=100)
        sched = GreedyScheduler(plane)
        a, b = plane.logical_positions[0], plane.logical_positions[1]
        assert reference_route(plane, a, b, 0) is None
        assert sched._route(a, b, 0) is None

    @pytest.mark.parametrize("rows,cols", PLANE_SHAPES)
    @pytest.mark.parametrize("rate", [0.0, 1e-4, 1e-3, 3e-3, 1e-2])
    @pytest.mark.parametrize("duration", [5, 100])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_q3de_runs_match_oracle(self, monkeypatch, rows, cols, rate,
                                    duration, seed):
        def run():
            return simulate_throughput(
                "q3de", 120, strike_prob_per_slot=rate,
                strike_duration_slots=duration, rows=rows, cols=cols,
                rng=np.random.default_rng(seed), max_slots=300)

        got = run()
        monkeypatch.setattr(GreedyScheduler, "_route", _oracle_route)
        want = run()
        assert isinstance(got, ThroughputResult)
        assert got == want

    @pytest.mark.parametrize("rows,cols", PLANE_SHAPES)
    @pytest.mark.parametrize("architecture", ["mbbe_free", "baseline"])
    @pytest.mark.parametrize("rate", [0.0, 1e-2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_strike_free_runs_match_oracle(self, monkeypatch, rows, cols,
                                           architecture, rate, seed):
        def run():
            return simulate_throughput(
                architecture, 120, strike_prob_per_slot=rate,
                rows=rows, cols=cols, rng=np.random.default_rng(seed),
                max_slots=300)

        got = run()
        monkeypatch.setattr(GreedyScheduler, "_route", _oracle_route)
        assert got == run()

    def test_try_commit_outside_step_sees_fresh_strike(self):
        plane = QubitPlane(3, 5)
        sched = GreedyScheduler(plane)
        queue = deque([zz(0, 1)])
        sched.step(queue, slot=0)          # routes and commits at slot 0
        sched.step(queue, slot=1)          # retires it
        assert sched.completed == 1
        # Cut every path between the two qubits just before committing.
        for cell in [(1, 2), (0, 2), (2, 2)]:
            plane.strike(*cell, until_slot=10)
        assert not sched.try_commit(zz(0, 1, reg=1), slot=1)
        # ... and a direct write that reopens one path is seen too.
        blk = plane.block(0, 2)
        blk.anomalous_until = 1
        plane.expire_anomalies(1)
        assert sched.try_commit(zz(0, 1, reg=1), slot=1)

    def test_commit_within_step_drops_labels(self):
        # Two commuting ops whose only routes share row 0: the second
        # must see the first's reservation within the same step.
        plane = QubitPlane(3, 9)   # qubits at (1,1), (1,3), (1,5), (1,7)
        for c in range(9):
            plane.strike(2, c, until_slot=100)
        sched = GreedyScheduler(plane)
        first, second = zz(0, 2), zz(1, 3, reg=1)
        a, b = plane.logical_positions[1], plane.logical_positions[3]
        assert reference_route(plane, a, b, 0) is not None
        queue = deque([first, second])
        sched.step(queue, slot=0)
        assert list(queue) == [second]
        assert reference_route(plane, a, b, 0) is None
