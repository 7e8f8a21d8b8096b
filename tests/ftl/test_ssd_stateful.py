"""Stateful property test: the SSD's invariants under random operations.

Hypothesis drives arbitrary interleavings of writes, migrations, trims
and reads against a tiny SSD and checks the mapping/accounting
invariants after every step — the strongest guard we have against FTL
state corruption (the class of bug FlashSim-style simulators are
notorious for).  A second machine runs the same rules with static wear
leveling on, so its cold-block relocations are checked too.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.level_adjust import CellMode
from repro.errors import OutOfSpaceError
from repro.ftl.config import SsdConfig
from repro.ftl.ssd import Ssd
from repro.ftl.wear_leveling import WearLeveler

_MODES = (CellMode.NORMAL, CellMode.REDUCED, CellMode.SLC)


class SsdMachine(RuleBasedStateMachine):
    #: Static wear-leveling policy of the drive under test (None: off).
    wear_leveler = None

    @initialize(prefill=st.integers(0, 100))
    def setup(self, prefill):
        # 100 logical pages over 16 blocks of 8: a few dozen writes fill
        # the free pool, so most runs garbage-collect.
        self.config = SsdConfig(
            n_blocks=16,
            pages_per_block=8,
            page_size_bytes=4096,
            gc_free_block_threshold=2,
        )
        self.ssd = Ssd(
            self.config,
            prefill_pages=min(prefill, self.config.logical_pages),
            wear_leveler=self.wear_leveler,
        )
        self.written = set(range(min(prefill, self.config.logical_pages)))
        self.clock = 0.0

    def _lpn(self, raw):
        return raw % self.config.logical_pages

    @rule(raw=st.integers(0, 10_000), mode=st.sampled_from(_MODES))
    def write(self, raw, mode):
        lpn = self._lpn(raw)
        self.clock += 1000.0
        try:
            self.ssd.host_write(lpn, mode, now_us=self.clock)
        except OutOfSpaceError:
            return  # capacity exhausted (e.g. everything SLC): state intact
        self.written.add(lpn)

    @rule(
        raw=st.integers(0, 10_000),
        length=st.integers(2, 24),
        mode=st.sampled_from(_MODES),
    )
    def write_run(self, raw, length, mode):
        """A sequential burst: fills blocks fast enough to drive GC."""
        for step in range(length):
            self.write(raw + step, mode)

    @rule(raw=st.integers(0, 10_000), mode=st.sampled_from(_MODES))
    def migrate(self, raw, mode):
        lpn = self._lpn(raw)
        if lpn not in self.written:
            return
        self.clock += 1000.0
        try:
            self.ssd.migrate(lpn, mode, now_us=self.clock)
        except OutOfSpaceError:
            return

    @rule(raw=st.integers(0, 10_000))
    def trim(self, raw):
        lpn = self._lpn(raw)
        was_mapped = self.ssd._l2p[lpn] >= 0
        assert self.ssd.trim(lpn) == was_mapped
        assert self.ssd._l2p[lpn] == -1
        assert self.ssd.mode_of(lpn) is None
        self.written.discard(lpn)

    @rule(raw=st.integers(0, 10_000))
    def read(self, raw):
        lpn = self._lpn(raw)
        self.clock += 100.0
        info = self.ssd.read_info(lpn, now_us=self.clock)
        assert info.age_hours >= 0.0
        assert info.pe_cycles >= self.config.initial_pe_cycles

    @invariant()
    def mapping_is_bijective(self):
        ssd = getattr(self, "ssd", None)
        if ssd is None:
            return
        mapped = ssd._l2p >= 0
        ppns = ssd._l2p[mapped]
        assert np.unique(ppns).size == ppns.size  # no two LPNs share a page
        assert (ssd._p2l[ppns] == np.flatnonzero(mapped)).all()
        assert ssd._page_valid[ppns].all()

    @invariant()
    def valid_counts_match_pages(self):
        ssd = getattr(self, "ssd", None)
        if ssd is None:
            return
        per_block = ssd._page_valid.reshape(ssd.config.n_blocks, -1).sum(axis=1)
        assert (per_block == ssd._block_valid).all()

    @invariant()
    def pages_are_conserved_per_block(self):
        """free + valid + invalid = usable pages in every block, with
        the write pointer inside [0, usable]."""
        ssd = getattr(self, "ssd", None)
        if ssd is None:
            return
        config = ssd.config
        by_code = {
            -2: 0,
            -1: config.pages_per_block,
            0: config.pages_per_block,
            1: config.reduced_pages_per_block,
            2: config.slc_pages_per_block,
        }
        usable = np.array([by_code[int(code)] for code in ssd._block_mode])
        write_ptr = ssd._block_write_ptr
        assert ((write_ptr >= 0) & (write_ptr <= usable)).all()
        pages = ssd._page_valid.reshape(config.n_blocks, -1)
        written = np.arange(config.pages_per_block) < write_ptr[:, None]
        valid = pages.sum(axis=1)
        invalid = (written & ~pages).sum(axis=1)
        free = usable - write_ptr
        assert (free + valid + invalid == usable).all()

    @invariant()
    def written_pages_stay_mapped(self):
        ssd = getattr(self, "ssd", None)
        if ssd is None:
            return
        for lpn in self.written:
            assert ssd._l2p[lpn] >= 0

    @invariant()
    def free_pool_consistent(self):
        ssd = getattr(self, "ssd", None)
        if ssd is None:
            return
        for block in ssd._free_blocks:
            assert ssd._block_mode[block] == -1
            assert ssd._block_valid[block] == 0


class LeveledSsdMachine(SsdMachine):
    wear_leveler = WearLeveler(spread_threshold=2, check_interval=1)


TestSsdStateful = SsdMachine.TestCase
TestSsdStateful.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)
TestLeveledSsdStateful = LeveledSsdMachine.TestCase
TestLeveledSsdStateful.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)
