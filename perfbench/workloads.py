"""The benchmark's workloads: scenario grids and how each is driven.

Each workload is one closed-loop client that issues one campaign at a time.
A grid is kept as plain data so that two independent paths can be built from
it: the command line a user would type (``grid_argv``) and the in-process
monolithic ``Campaign.run`` the artifacts are checked against
(``launch.py verify``).  The workload seed becomes the CLI's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: CLI flag of each grid axis, in the order ``repro.explore.cli`` builds them
#: (axis order fixes scenario names, so the in-process reference uses it too).
AXIS_FLAGS = (
    ("core_count", "--core-counts"),
    ("tam_width_bits", "--tam-widths"),
    ("compression_ratio", "--compression-ratios"),
    ("power_budget", "--power-budgets"),
    ("wrapper_serial_width_bits", "--wrapper-serial-widths"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "campaign": a cold ``campaign --workers 1 --json`` process.
    #: "pool": ``serve`` + ``work --prefetch`` processes + ``submit --wait``.
    mode: str
    axes: Dict[str, Tuple]
    patterns: int
    schedules: Tuple[str, ...]
    strategies: Tuple[str, ...] = ()
    memory_words: int = 0
    #: Spans the pool workload plans the campaign into (``submit --shards``).
    shards: int = 0
    why: str = ""

    def grid_argv(self, seed: int) -> List[str]:
        """Scenario-space flags shared by ``campaign`` and ``submit``."""
        argv: List[str] = []
        for axis, flag in AXIS_FLAGS:
            if axis in self.axes:
                argv.append(flag)
                argv.extend(str(value) for value in self.axes[axis])
        argv += ["--patterns", str(self.patterns),
                 "--memory-words", str(self.memory_words),
                 "--seed", str(seed),
                 "--schedules", *self.schedules]
        for strategy in self.strategies:
            argv += ["--strategy", strategy]
        return argv


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="cli_grid",
            mode="campaign",
            axes={"core_count": (1, 2, 3, 4),
                  "tam_width_bits": (8, 16, 32, 64),
                  "compression_ratio": (10.0, 100.0),
                  "power_budget": (3.0, 8.0)},
            patterns=200,
            schedules=("sequential", "greedy"),
            why="The headline path: 64 small generated SoCs x 2 schedules "
                "through one cold CLI process; simulation dominates and the "
                "schedule layer is nearly idle.",
        ),
        Workload(
            name="wide_soc",
            mode="campaign",
            axes={"core_count": (8, 10, 12, 14, 16),
                  "tam_width_bits": (16, 32),
                  "compression_ratio": (10.0,),
                  "power_budget": (8.0,)},
            patterns=200,
            memory_words=1024,
            schedules=("greedy",),
            strategies=("binpack", "anneal:steps=1024"),
            why="Wide SoCs with a memory core under greedy, binpack and "
                "anneal: the schedule layer does real work and the kernel "
                "queue is about twice as deep as in cli_grid.",
        ),
        Workload(
            name="coordinator_pool",
            mode="pool",
            # 700 one-core scenarios x 2 schedules = 1400 jobs in 11 spans of
            # 127 or 128 rows: both sides of SESSION_BLOCK_MIN_ROWS (128), so
            # the JSON and the RSB1 completion encodings both run.
            axes={"core_count": (1,),
                  "tam_width_bits": (8, 16, 32, 64, 128),
                  "compression_ratio": (2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                                        200.0),
                  "power_budget": (3.0, 6.0, 9.0, 12.0),
                  "wrapper_serial_width_bits": (1, 2, 4, 8, 16)},
            patterns=4,
            schedules=("sequential", "greedy"),
            shards=11,
            why="serve + work --prefetch processes + submit --wait --store: "
                "lease, transport, ingest and store writes are a large share; "
                "the only workload where the coordinator works.",
        ),
    )
}


def pool_worker_count(cpus: int) -> int:
    """``work`` processes of the pool workload: two, but at most ``nproc``."""
    return max(1, min(2, cpus))

