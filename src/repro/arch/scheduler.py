"""Greedy lattice-surgery scheduler (paper Sec. VIII-B).

Each scheduling slot (``d`` code cycles), the scheduler walks the
instruction queue in order and commits every instruction whose operands
are free and, for ``meas_ZZ``, for which a path of routable vacant blocks
connects the two logical qubits.  Instructions on expanded qubits take
twice as long (their distance is doubled); so do *all* instructions under
the baseline architecture, whose default code distance is doubled.

Routing reads the plane's routable-component labels
(:meth:`QubitPlane.routable_components`): a ``meas_ZZ`` whose operands
touch no common component fails in O(1), and the BFS of one that can
route runs over the flat neighbour table inside those components.  Once
strikes are frequent most attempts fail, so a search that floods the
start's reachable region before failing would dominate the run.

The labels are cached only while :meth:`GreedyScheduler.step` runs.
Within one step the slot is fixed and the only plane writes are the
reservations of successful commits, so the cache is built on the step's
first route, dropped after every successful :meth:`try_commit` and
dropped when the step ends.  Outside a step, callers (reaction policies,
strike injection, tests) write ``Block`` fields directly; a
:meth:`try_commit` made there builds fresh labels, so it never routes on
a stale snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.isa import Instruction, InstructionKind
from repro.arch.qubit_plane import QubitPlane


@dataclass
class CommittedOp:
    """An instruction currently executing on the plane."""

    instruction: Instruction
    cells: list[tuple[int, int]]
    finish_slot: int


@dataclass
class GreedyScheduler:
    """Routes and commits instructions on a :class:`QubitPlane`.

    Args:
        plane: the qubit plane.
        base_latency_slots: latency of a normal op in slots (1 slot = d
            code cycles).
        lookahead: how deep into the queue out-of-order commit may reach.
    """

    plane: QubitPlane
    base_latency_slots: int = 1
    lookahead: int = 64
    executing: list[CommittedOp] = field(default_factory=list)
    completed: int = 0
    _labels: Optional[list[int]] = field(
        default=None, init=False, repr=False, compare=False)
    _in_step: bool = field(default=False, init=False, repr=False,
                           compare=False)

    # ------------------------------------------------------------------
    def _components(self, slot: int) -> list[int]:
        """Routable-component labels for ``slot`` (see module docstring)."""
        labels = self._labels
        if labels is None:
            labels = self.plane.routable_components(slot)
            if self._in_step:
                self._labels = labels
        return labels

    def _route(self, a: tuple[int, int], b: tuple[int, int],
               slot: int) -> Optional[list[tuple[int, int]]]:
        """BFS over routable vacant blocks from qubit block a to b.

        A path exists iff some routable neighbour of ``a`` shares a
        component label with one of ``b``; otherwise this returns
        ``None`` without searching.  The BFS only enters the start's
        matching components, whose cells it visits in the same FIFO and
        neighbour order as a search over every routable block, so the
        returned path is the one that search finds.
        """
        labels = self._components(slot)
        nbrs = self.plane.neighbor_table
        cols = self.plane.cols
        goal = {n for n in nbrs[b[0] * cols + b[1]] if labels[n]}
        joined = {labels[n] for n in goal}
        start = [n for n in nbrs[a[0] * cols + a[1]] if labels[n] in joined]
        if not start:
            return None
        queue = deque(start)
        parents = dict.fromkeys(start, -1)
        while queue:
            cell = queue.popleft()
            if cell in goal:
                path = []
                while cell >= 0:
                    path.append(divmod(cell, cols))
                    cell = parents[cell]
                return path
            for nxt in nbrs[cell]:
                if labels[nxt] and nxt not in parents:
                    parents[nxt] = cell
                    queue.append(nxt)
        raise AssertionError("component labels joined an unreachable goal")

    def _latency_slots(self, inst: Instruction) -> int:
        """Expanded operands double the instruction latency."""
        factor = 1
        for q in inst.targets:
            if self.plane.is_expanded(q):
                factor = 2
        return self.base_latency_slots * factor

    # ------------------------------------------------------------------
    def try_commit(self, inst: Instruction, slot: int) -> bool:
        """Attempt to commit one instruction this slot."""
        targets = inst.targets
        if any(not self.plane.qubit_free(q, slot) for q in targets):
            return False
        cells: list[tuple[int, int]] = [
            self.plane.logical_positions[q] for q in targets]
        for q in targets:
            cells.extend(self.plane.expansions.get(q, []))
        if inst.kind is InstructionKind.MEAS_ZZ:
            a = self.plane.logical_positions[targets[0]]
            b = self.plane.logical_positions[targets[1]]
            path = self._route(a, b, slot)
            if path is None:
                return False
            cells.extend(path)
        finish = slot + self._latency_slots(inst)
        self.plane.reserve(cells, finish)
        self._labels = None
        self.executing.append(CommittedOp(inst, cells, finish))
        return True

    def step(self, queue: deque, slot: int) -> int:
        """One scheduling slot: retire finished ops, commit ready ones.

        ``queue`` is a deque of pending instructions (program order).
        Returns the number of instructions that finished this slot.
        """
        finished = [op for op in self.executing if op.finish_slot <= slot]
        self.executing = [op for op in self.executing
                          if op.finish_slot > slot]
        self.completed += len(finished)

        committed: list[Instruction] = []
        busy_targets: set[int] = set()
        for op in self.executing:
            busy_targets.update(op.instruction.targets)
        self._in_step = True
        try:
            for idx, inst in enumerate(queue):
                if idx >= self.lookahead:
                    break
                if set(inst.targets) & busy_targets:
                    continue
                if self.try_commit(inst, slot):
                    committed.append(inst)
                # Keep program order among conflicting instructions: a
                # later instruction may only jump ahead if it commutes
                # (disjoint targets) with everything still waiting.
                busy_targets.update(inst.targets)
        finally:
            self._in_step = False
            self._labels = None
        for inst in committed:
            queue.remove(inst)
        return len(finished)
