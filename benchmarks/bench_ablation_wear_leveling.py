"""Ablation: static wear leveling under a skewed write workload.

Not a paper experiment, but a substrate validation FlashSim-class
simulators need: greedy GC alone lets erase counts diverge on skewed
writes; the static wear leveler bounds the spread at a small relocation
cost.
"""

import numpy as np
from conftest import BENCH_SEED, QUICK, write_table

from repro.core.level_adjust import CellMode
from repro.ftl.config import SsdConfig
from repro.ftl.ssd import Ssd
from repro.ftl.wear_leveling import WearLeveler, erase_spread

N_WRITES = 8_000 if QUICK else 30_000


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "greedy_erase_spread": 5.0,
    "leveled_erase_spread": 5.0,
    "leveled_max_pe_delta": 5.0,
    "leveled_write_amplification": 1.0945,
    "wl_moves": 0.0,
}


def _run(leveler):
    config = SsdConfig(n_blocks=128, pages_per_block=32, gc_free_block_threshold=2)
    prefill = int(config.logical_pages * 0.9)
    ssd = Ssd(config, prefill_pages=prefill, wear_leveler=leveler)
    rng = np.random.default_rng(BENCH_SEED + 16)
    hot = prefill // 4
    for _ in range(N_WRITES):
        # A truly static cold region: all writes land in the hot quarter.
        ssd.host_write(int(rng.integers(hot)), CellMode.NORMAL, now_us=0.0)
    return {
        "spread": erase_spread(ssd._block_erase),
        "max_pe_delta": int(ssd._block_erase.max()),
        "erases": ssd.stats.erase_blocks,
        "wl_moves": ssd.stats.wear_level_moves,
        "write_amplification": ssd.stats.write_amplification(),
    }


def test_ablation_wear_leveling(results_dir):
    results = {
        "greedy-only": _run(None),
        "wear-leveled": _run(WearLeveler(spread_threshold=10, check_interval=12)),
    }

    lines = ["policy        erase spread  max erases  total erases  WL moves  WA"]
    for name, row in results.items():
        lines.append(
            f"{name:12s}  {row['spread']:12d}  {row['max_pe_delta']:10d}  "
            f"{row['erases']:12d}  {row['wl_moves']:8d}  "
            f"{row['write_amplification']:.2f}"
        )
    lines.append("")
    lines.append("the leveler bounds the erase-count spread (drive dies with its")
    lines.append("hottest block) for a small relocation overhead")
    write_table(results_dir, "ablation_wear_leveling", lines)

    plain, leveled = results["greedy-only"], results["wear-leveled"]
    metrics = {
        "greedy_erase_spread": plain["spread"],
        "leveled_erase_spread": leveled["spread"],
        "leveled_max_pe_delta": leveled["max_pe_delta"],
        "leveled_write_amplification": leveled["write_amplification"],
        "wl_moves": leveled["wl_moves"],
    }
    if QUICK:
        assert metrics == QUICK_PINS
    if not QUICK:
        # Quick-scale write counts never hit the leveler's trigger.
        assert leveled["wl_moves"] > 0
        # The endurance headline: max per-block wear falls for the same work.
        assert leveled["max_pe_delta"] < plain["max_pe_delta"]
        # ...at a bounded relocation cost.
        assert leveled["write_amplification"] < plain["write_amplification"] * 1.15
