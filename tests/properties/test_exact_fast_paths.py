"""Pins for the per-row fast paths: each must equal the eager code it replaced.

* ``ScanConfiguration.describe`` stores O(chain_count) chain descriptions;
  iterating them yields the cells an eager builder would have allocated.
* ``Interface.required_methods`` is cached per class, never inherited.
* ``TestWrapper.apply_external_patterns`` folds its tokens with one
  ``MISR.compact_sequence`` call instead of one ``compact`` per pattern.
* ``Clock.cycles`` multiplies integer counts directly.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.dft import CoreTestDescription, generate_wrapper
from repro.kernel import Clock, SimTime, Simulator
from repro.kernel.interface import Interface
from repro.kernel.simtime import cycles_to_time
from repro.rtl import MISR
from repro.rtl.scan import ScanCell, ScanConfiguration, insert_scan


def eager_describe(core_name, chain_count, total_cells):
    """Per-chain cell lists exactly as the eager ``describe`` built them."""
    chains = []
    base, remainder = divmod(total_cells, chain_count)
    cell_index = 0
    for index in range(chain_count):
        length = base + (1 if index < remainder else 0)
        chains.append([
            ScanCell(name=f"{core_name}_sff_{cell_index + position}",
                     chain_index=index, position=position)
            for position in range(length)
        ])
        cell_index += length
    return chains


class TestDescribedScanChains:
    @settings(max_examples=80, deadline=None)
    @given(core_name=st.sampled_from(["c", "cpu", "dct_core"]),
           chain_count=st.integers(1, 40), extra=st.integers(0, 400))
    def test_cells_equal_the_eager_build(self, core_name, chain_count, extra):
        total = chain_count + extra
        config = ScanConfiguration.describe(core_name, chain_count, total)
        expected = eager_describe(core_name, chain_count, total)
        assert [list(chain) for chain in config.chains] == expected
        assert [chain.length for chain in config.chains] == \
            [len(cells) for cells in expected]
        assert [chain.index for chain in config.chains] == \
            list(range(chain_count))
        assert config.total_cells == total
        assert config.max_chain_length == max(len(cells) for cells in expected)

    def test_describe_allocates_per_chain_not_per_cell(self):
        tracemalloc.start()
        try:
            config = ScanConfiguration.describe("c", 16, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert config.total_cells == 1_000_000
        assert config.max_chain_length == 62_500
        assert peak < 256 * 1024

    def test_chains_are_a_tuple(self):
        config = ScanConfiguration.describe("c", 4, 10)
        assert isinstance(config.chains, tuple)
        with pytest.raises(AttributeError):
            config.chains = ()

    def test_inserted_chains_cannot_change_length(self, small_netlist):
        config = insert_scan(small_netlist, 4)
        for chain in config.chains:
            assert isinstance(chain.cells, tuple)
            with pytest.raises(AttributeError):
                chain.cells = ()
        assert config.total_cells == sum(len(c.cells) for c in config.chains)


def _interface_pair():
    class Base(Interface):
        def alpha(self):
            raise NotImplementedError

    class Sub(Base):
        def beta(self):
            raise NotImplementedError

    return Base, Sub


class TestRequiredMethodsCache:
    @pytest.mark.parametrize("parent_first", [True, False])
    def test_each_class_reports_its_own_contract(self, parent_first):
        base, sub = _interface_pair()
        if parent_first:
            assert base.required_methods() == ["alpha"]
            assert sub.required_methods() == ["alpha", "beta"]
        else:
            assert sub.required_methods() == ["alpha", "beta"]
            assert base.required_methods() == ["alpha"]
        # Repeated (cached) calls agree.
        assert base.required_methods() == ["alpha"]
        assert sub.required_methods() == ["alpha", "beta"]

    def test_mutating_a_returned_list_does_not_leak(self):
        base, _ = _interface_pair()
        methods = base.required_methods()
        methods.append("gamma")
        methods.remove("alpha")
        assert base.required_methods() == ["alpha"]

    def test_is_implemented_by_uses_the_subclass_contract(self):
        base, sub = _interface_pair()

        class OnlyAlpha:
            def alpha(self):
                return 1

        assert base.is_implemented_by(OnlyAlpha())
        assert not sub.is_implemented_by(OnlyAlpha())


class TestExternalPatternFold:
    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(-2, 300), min_size=1, max_size=6))
    def test_signature_equals_per_pattern_compact_loop(self, counts):
        description = CoreTestDescription.describe("demo", chain_count=4,
                                                    scan_cells=64)
        wrapper = generate_wrapper(Simulator("fold"), description)
        reference = MISR(wrapper.misr.width, seed=0)
        applied = 0
        for count in counts:
            wrapper.apply_external_patterns(count)
            for _ in range(max(count, 0)):
                applied += 1
                reference.compact(applied)
            assert wrapper.signature == reference.signature
        assert wrapper.external_patterns_applied == applied


class TestClockCycles:
    @given(count=st.integers(0, 1 << 40), period_fs=st.integers(1, 10**9))
    def test_equals_cycles_to_time(self, count, period_fs):
        clock = Clock(Simulator("clk"), "clk", SimTime(period_fs))
        duration = clock.cycles(count)
        assert type(duration) is SimTime
        assert duration == cycles_to_time(count, clock.period)

    @given(count=st.integers(max_value=-1))
    def test_negative_counts_still_raise(self, count):
        clock = Clock(Simulator("clk"), "clk", SimTime(10))
        with pytest.raises(ValueError, match="cycle count cannot be negative"):
            clock.cycles(count)
