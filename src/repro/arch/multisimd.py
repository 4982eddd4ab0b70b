"""Multi-SIMD architecture for planar QEC (Section 4.4, Figure 3a).

"Many qubits undergoing the same operation are clustered in one SIMD
region, and multiple (reconfigurable) SIMD regions can accommodate
heterogeneous types of operations at any cycle."  Communication is by
teleportation; EPR pairs are produced in dedicated factories and
distributed through swap channels, prefetched by the Section 8.1
pipeline.

The SIMD schedule groups dependence-ready operations by gate type and
issues the ``k`` largest groups each logical cycle -- qubit-level
parallelism within a region is free (microwave broadcast), region count
is the constrained resource.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..frontend.schedule import LogicalSchedule
from ..partition.graph import interaction_graph_from_circuit
from ..partition.layout import GridShape, Placement, grid_for, optimized_layout
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import PLANAR, SurfaceCode
from ..network.epr import EprPipelineConfig, EprPipelineResult, _simulate
from ..network.mesh import Router
from ..network.teleport import DEFAULT_TELEPORT_MODEL

__all__ = ["MultiSimdMachine", "simd_schedule", "build_multisimd_machine"]


def simd_schedule(
    circuit: Circuit,
    regions: int,
    dag: Optional[CircuitDag] = None,
) -> LogicalSchedule:
    """Multi-SIMD list schedule: k same-gate groups per logical cycle.

    Greedy level scheduler: among dependence-ready operations, pick the
    ``regions`` largest same-mnemonic groups (SIMD regions are
    reconfigurable per cycle), issue them together, repeat.  With
    abundant regions this converges to the ASAP schedule.
    """
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    dag = dag or CircuitDag(circuit)
    remaining = [dag.in_degree(i) for i in range(dag.num_nodes)]
    ready: set[int] = set(dag.sources())
    cycles: list[tuple[int, ...]] = []
    done = 0
    while done < dag.num_nodes:
        groups: dict[str, list[int]] = {}
        for op in ready:
            groups.setdefault(circuit[op].gate, []).append(op)
        chosen = sorted(
            groups.values(), key=lambda ops: (-len(ops), circuit[ops[0]].gate)
        )[:regions]
        issued = [op for group in chosen for op in sorted(group)]
        if not issued:
            raise RuntimeError("SIMD scheduler stalled with work remaining")
        for op in issued:
            ready.discard(op)
        for op in issued:
            for succ in dag.successors(op):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.add(succ)
        cycles.append(tuple(issued))
        done += len(issued)
    return LogicalSchedule(circuit, tuple(cycles))


@dataclasses.dataclass(frozen=True)
class MultiSimdMachine:
    """A sized Multi-SIMD machine bound to one circuit.

    Attributes:
        circuit: The (flat, Clifford+T) program.
        regions: SIMD region count.
        region_grid: Grid of regions/memories for distance accounting.
        placement: Qubit -> home memory region site.
        epr_factory: EPR factory site (corner of the region grid).
        code: The planar code model.
    """

    circuit: Circuit
    regions: int
    region_grid: GridShape
    placement: Placement
    epr_factory: Router
    code: SurfaceCode

    def schedule(self, dag: Optional[CircuitDag] = None) -> LogicalSchedule:
        return simd_schedule(self.circuit, self.regions, dag)

    def physical_qubits(self, distance: int, peak_epr_pairs: int = 0) -> int:
        """Data tiles + ancilla region + in-flight EPR pairs, in planar
        tiles (Section 4.3's 1:4 ancilla:data balance covers factories
        and teleport buffers)."""
        data_tiles = self.circuit.num_qubits
        ancilla_tiles = -(-data_tiles // 4)
        epr_tiles = 2 * peak_epr_pairs
        return (data_tiles + ancilla_tiles + epr_tiles) * self.code.tile_qubits(
            distance
        )

    def epr_pipeline(
        self,
        schedule: LogicalSchedule,
        distance: int,
        window: int = 64,
        bandwidth: Optional[int] = None,
    ) -> EprPipelineResult:
        """Run the Section 8.1 pipelined EPR distribution for a schedule.

        The window is given in logical cycles and scaled to error
        correction cycles internally (one logical cycle = d EC cycles on
        the planar lattice).  The result equals
        :func:`~repro.network.epr.simulate_epr_pipeline` over
        :func:`~repro.network.epr.demands_from_schedule` with use cycles
        scaled by d; it is built in one walk of the schedule that
        computes each operand tuple's distribution cycles once, for both
        the bandwidth sum and the simulation.
        """
        if bandwidth is not None:
            config = EprPipelineConfig(
                window=window * distance,
                bandwidth=bandwidth,
                distance=distance,
            )
        model = DEFAULT_TELEPORT_MODEL
        factory = self.epr_factory
        position = self.placement.position
        circuit = schedule.circuit
        magic_of: dict[str, bool] = {}
        cost_of: dict[tuple[str, ...], float] = {}
        uses: list[int] = []
        durations: list[float] = []
        service = 0  # summed in schedule order, before the per-cycle sort
        for cycle, ops in enumerate(schedule.cycles):
            demands = []
            for op_index in ops:
                op = circuit[op_index]
                qubits = op.qubits
                if len(qubits) != 2:
                    magic = magic_of.get(op.gate)
                    if magic is None:
                        magic = magic_of[op.gate] = op.consumes_magic_state
                    if not magic:
                        continue
                cost = cost_of.get(qubits)
                if cost is None:
                    a = position(qubits[0])
                    b = position(qubits[1]) if len(qubits) == 2 else factory
                    cost = cost_of[qubits] = model.distribution_cycles(
                        factory, a, b, distance
                    )
                service += cost
                demands.append((op_index, cost))
            if demands:
                # The simulation consumes demands in (use, op) order.
                demands.sort()
                use = cycle * distance
                for _, cost in demands:
                    uses.append(use)
                    durations.append(cost)
        if bandwidth is None:
            # Provision swap channels for ~2/3 utilization at this
            # program's mean distribution demand (Section 8.1: channel
            # capacity follows demand; parallelism has little effect on
            # pipelinability).
            ideal = max(1, schedule.length * distance)
            config = EprPipelineConfig(
                window=window * distance,
                bandwidth=max(4, round(1.5 * service / ideal)),
                distance=distance,
            )
        return _simulate(
            uses,
            durations,
            config.window,
            config.bandwidth,
            schedule.length * distance,
        )


def build_multisimd_machine(
    circuit: Circuit,
    regions: int = 4,
    code: SurfaceCode = PLANAR,
) -> MultiSimdMachine:
    """Size a Multi-SIMD machine and assign qubits to memory regions.

    Qubits are clustered into memory regions with the interaction-aware
    partitioner (the mapping-level communication reduction of [35]),
    then regions are placed on a near-square grid.
    """
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    num_qubits = max(circuit.num_qubits, 1)
    grid = grid_for(num_qubits)
    graph = interaction_graph_from_circuit(circuit)
    placement = optimized_layout(graph, grid)
    return MultiSimdMachine(
        circuit=circuit,
        regions=regions,
        region_grid=grid,
        placement=placement,
        epr_factory=(0, 0),
        code=code,
    )
