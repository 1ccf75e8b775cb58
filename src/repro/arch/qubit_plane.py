"""The qubit plane: a block grid hosting logical qubits (paper Sec. II-B).

Following the paper's allocation (after Beverland et al.), logical qubits
occupy blocks at odd-indexed rows and columns of the block grid, leaving
vacant blocks between them for lattice-surgery routing: an 11 x 11 grid
hosts 5 x 5 = 25 logical qubits (Fig. 10 left).

Blocks can be: vacant, hosting a logical qubit, reserved by an executing
instruction, anomalous (struck by a cosmic ray), or absorbed into an
expanded logical qubit (Q3DE's 2x2-block expansion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

#: Neighbour offsets, in the order BFS visits them.
_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


class BlockState(enum.Enum):
    VACANT = "vacant"
    LOGICAL = "logical"
    RESERVED = "reserved"        # in use by an executing instruction
    ANOMALOUS = "anomalous"      # struck; avoided by the scheduler
    EXPANSION = "expansion"      # absorbed into an expanded logical qubit


@dataclass
class Block:
    """One surface-code block on the plane."""

    row: int
    col: int
    state: BlockState = BlockState.VACANT
    logical_id: Optional[int] = None
    busy_until: int = -1          # slot index; RESERVED while slot < this
    anomalous_until: int = -1


class QubitPlane:
    """A rows x cols block grid with the paper's checkerboard allocation."""

    def __init__(self, rows: int = 11, cols: int = 11):
        if rows < 1 or cols < 1:
            raise ValueError("plane must be non-empty")
        self.rows = rows
        self.cols = cols
        self.blocks = [[Block(r, c) for c in range(cols)] for r in range(rows)]
        #: In-bounds 4-neighbours of each row-major cell ``r * cols + c``.
        self.neighbor_table: tuple[tuple[int, ...], ...] = tuple(
            tuple((r + dr) * cols + c + dc for dr, dc in _OFFSETS
                  if 0 <= r + dr < rows and 0 <= c + dc < cols)
            for r in range(rows) for c in range(cols))
        self.logical_positions: dict[int, tuple[int, int]] = {}
        self.expansions: dict[int, list[tuple[int, int]]] = {}
        qubit = 0
        for r in range(1, rows, 2):
            for c in range(1, cols, 2):
                self.blocks[r][c].state = BlockState.LOGICAL
                self.blocks[r][c].logical_id = qubit
                self.logical_positions[qubit] = (r, c)
                qubit += 1
        self.num_logical = qubit

    # ------------------------------------------------------------------
    def block(self, row: int, col: int) -> Block:
        return self.blocks[row][col]

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols

    def neighbors(self, row: int, col: int) -> Iterator[tuple[int, int]]:
        return (divmod(n, self.cols)
                for n in self.neighbor_table[row * self.cols + col])

    # ------------------------------------------------------------------
    # Anomaly and expansion management
    # ------------------------------------------------------------------
    def strike(self, row: int, col: int, until_slot: int) -> Block:
        """A cosmic ray hits a block; vacant blocks become ANOMALOUS
        (detected via direct data-qubit measurement and avoided)."""
        blk = self.blocks[row][col]
        blk.anomalous_until = max(blk.anomalous_until, until_slot)
        if blk.state is BlockState.VACANT:
            blk.state = BlockState.ANOMALOUS
        return blk

    def expire_anomalies(self, slot: int) -> list[tuple[int, int]]:
        """Return struck blocks to service once their anomaly has decayed."""
        recovered = []
        for row in self.blocks:
            for blk in row:
                if (blk.state is BlockState.ANOMALOUS
                        and blk.anomalous_until <= slot):
                    blk.state = BlockState.VACANT
                    recovered.append((blk.row, blk.col))
        return recovered

    def is_anomalous(self, row: int, col: int, slot: int) -> bool:
        return self.blocks[row][col].anomalous_until > slot

    def expand_logical(self, qubit: int, slot: int) -> bool:
        """Grow a struck logical qubit into a 2x2 block group (Sec. V-B).

        Absorbs up to three vacant neighbouring blocks (preferring the
        quadrant with free space).  Returns False if no vacant neighbour
        exists (the expansion stays queued).
        """
        if qubit in self.expansions:
            return True
        r, c = self.logical_positions[qubit]
        absorbed: list[tuple[int, int]] = []
        for dr, dc in ((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1),
                       (1, -1), (-1, 1)):
            if len(absorbed) == 3:
                break
            rr, cc = r + dr, c + dc
            if not self.in_bounds(rr, cc):
                continue
            blk = self.blocks[rr][cc]
            if blk.state is BlockState.VACANT and blk.busy_until < 0:
                blk.state = BlockState.EXPANSION
                blk.logical_id = qubit
                absorbed.append((rr, cc))
        if not absorbed:
            return False
        self.expansions[qubit] = absorbed
        return True

    def shrink_logical(self, qubit: int) -> None:
        """Release an expansion's absorbed blocks."""
        for rr, cc in self.expansions.pop(qubit, []):
            blk = self.blocks[rr][cc]
            blk.state = BlockState.VACANT
            blk.logical_id = None

    def is_expanded(self, qubit: int) -> bool:
        return qubit in self.expansions

    # ------------------------------------------------------------------
    # Routing availability
    # ------------------------------------------------------------------
    def routable(self, row: int, col: int, slot: int) -> bool:
        """True iff a block can carry a lattice-surgery path this slot."""
        blk = self.blocks[row][col]
        return (blk.state is BlockState.VACANT
                and blk.busy_until <= slot
                and blk.anomalous_until <= slot)

    def routable_components(self, slot: int) -> list[int]:
        """Connected components of the routable blocks this slot.

        Returns one label per flat cell: 0 if the block is not
        :meth:`routable`, otherwise a positive label shared exactly by
        the routable blocks a lattice-surgery path can join.
        """
        # -1 marks a routable cell not yet reached by the flood fill.
        vacant = BlockState.VACANT
        labels = [-1 if (blk.state is vacant
                         and blk.busy_until <= slot
                         and blk.anomalous_until <= slot) else 0
                  for row in self.blocks for blk in row]
        nbrs = self.neighbor_table
        label = 0
        for cell in range(len(labels)):
            if labels[cell] >= 0:
                continue
            label += 1
            labels[cell] = label
            stack = [cell]
            pop, push = stack.pop, stack.append
            while stack:
                for nxt in nbrs[pop()]:
                    if labels[nxt] < 0:
                        labels[nxt] = label
                        push(nxt)
        return labels

    def qubit_free(self, qubit: int, slot: int) -> bool:
        """True iff a logical qubit is not reserved by an executing op."""
        r, c = self.logical_positions[qubit]
        if self.blocks[r][c].busy_until > slot:
            return False
        return all(self.blocks[rr][cc].busy_until <= slot
                   for rr, cc in self.expansions.get(qubit, []))

    def reserve(self, cells: list[tuple[int, int]], until_slot: int) -> None:
        for r, c in cells:
            self.blocks[r][c].busy_until = max(
                self.blocks[r][c].busy_until, until_slot)
