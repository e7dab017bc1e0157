"""Scan-chain insertion and configuration.

The test wrapper TLM of the paper is constructed from the scan configuration
of a core (for example "32 scan chains" for the processor core, "8 scan
chains" for the DCT core).  This module derives such configurations from a
netlist by partitioning its flip-flops into balanced chains, and also allows
purely descriptive configurations for cores whose netlist is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class ScanCell:
    """A scan-enabled flip-flop: position in a chain plus the state bit name."""

    name: str
    chain_index: int
    position: int


@dataclass(frozen=True)
class ScanChain:
    """An ordered sequence of scan cells sharing one scan-in/scan-out pair.

    ``cells`` is stored as a tuple, so a chain cannot change length after
    a :class:`ScanConfiguration` has summed it.
    """

    index: int
    cells: Tuple[ScanCell, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def length(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


@dataclass(frozen=True)
class DescribedScanChain:
    """A chain of a core without a netlist: only its length and the index of
    its first cell are stored.  Iterating yields the same :class:`ScanCell`
    sequence an eagerly built chain would hold, named on demand."""

    core_name: str
    index: int
    length: int
    first_cell: int

    def __iter__(self):
        prefix = f"{self.core_name}_sff_"
        first = self.first_cell
        for position in range(self.length):
            yield ScanCell(name=f"{prefix}{first + position}",
                           chain_index=self.index, position=position)


@dataclass(frozen=True)
class ScanConfiguration:
    """The scan structure of a core as seen by the test infrastructure.

    ``chains`` is stored as a tuple of immutable chains, so ``total_cells``
    and ``max_chain_length`` are computed once at construction.
    """

    core_name: str
    chains: Tuple[Union[ScanChain, DescribedScanChain], ...] = ()
    total_cells: int = field(init=False, compare=False)
    #: Longest chain; the number of shift cycles per scan load/unload.
    max_chain_length: int = field(init=False, compare=False)

    def __post_init__(self):
        chains = tuple(self.chains)
        lengths = [chain.length for chain in chains]
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "total_cells", sum(lengths))
        object.__setattr__(self, "max_chain_length", max(lengths, default=0))

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    def shift_cycles_per_pattern(self) -> int:
        """Shift cycles needed to load one pattern (and unload the previous
        response concurrently), excluding the capture cycle."""
        return self.max_chain_length

    def cycles_for_patterns(self, pattern_count: int,
                            capture_cycles: int = 1) -> int:
        """Total scan-test cycles for *pattern_count* patterns.

        Loading pattern *i+1* overlaps with unloading response *i*; one final
        unload is required after the last capture.
        """
        if pattern_count <= 0:
            return 0
        shift = self.shift_cycles_per_pattern()
        return pattern_count * (shift + capture_cycles) + shift

    @classmethod
    def describe(cls, core_name: str, chain_count: int,
                 total_cells: int) -> "ScanConfiguration":
        """Create a descriptive configuration without an underlying netlist.

        Cells are distributed over the chains as evenly as possible, exactly
        like :func:`insert_scan` does for real netlists.  The chains are
        :class:`DescribedScanChain` objects, so the cost is O(chain_count),
        not O(total_cells).
        """
        if chain_count <= 0:
            raise ValueError("chain_count must be positive")
        if total_cells < chain_count:
            raise ValueError("need at least one cell per chain")
        chains = []
        base = total_cells // chain_count
        remainder = total_cells % chain_count
        cell_index = 0
        for index in range(chain_count):
            length = base + (1 if index < remainder else 0)
            chains.append(DescribedScanChain(core_name=core_name, index=index,
                                             length=length,
                                             first_cell=cell_index))
            cell_index += length
        return cls(core_name=core_name, chains=chains)


def insert_scan(netlist: Netlist, chain_count: int,
                core_name: Optional[str] = None) -> ScanConfiguration:
    """Partition the flip-flops of *netlist* into *chain_count* balanced chains."""
    if chain_count <= 0:
        raise ValueError("chain_count must be positive")
    flip_flop_names = sorted(netlist.flip_flops)
    if not flip_flop_names:
        raise ValueError(f"netlist {netlist.name!r} has no flip-flops to scan")
    if chain_count > len(flip_flop_names):
        raise ValueError(
            f"cannot build {chain_count} chains from "
            f"{len(flip_flop_names)} flip-flops"
        )
    cells: List[List[ScanCell]] = [[] for _ in range(chain_count)]
    for index, name in enumerate(flip_flop_names):
        chain_index = index % chain_count
        chain_cells = cells[chain_index]
        chain_cells.append(
            ScanCell(name=name, chain_index=chain_index, position=len(chain_cells))
        )
    chains = [ScanChain(index=i, cells=chain_cells)
              for i, chain_cells in enumerate(cells)]
    return ScanConfiguration(core_name=core_name or netlist.name, chains=chains)
