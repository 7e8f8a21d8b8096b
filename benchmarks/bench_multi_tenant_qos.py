"""Noisy-neighbor isolation: QoS scheduling under a 10x tenant.

The serving front-end's reason to exist, measured: three victim
tenants share the device with one noisy neighbor issuing at ten times
their arrival rate.  Each scheduler runs the *same* seeded tenant
streams; the only difference is which SQ head a freed controller slot
serves.  The victim's p99 is compared against its **isolated** run —
the same tenant stream with the whole device to itself — so the
emitted ratios read as "how much tail latency the neighbor inflicts":

* FIFO lets the neighbor's backlog sit in front of every victim
  request — the victim inherits the flood's queueing tail.
* Weighted-fair (start-time fair queueing) charges the flood to the
  flooder's own finish tags; the victim's p99 stays within
  ``WFQ_ISOLATION_BOUND`` of its isolated run.

All emitted metrics are virtual-time quantities from seeded streams,
so a fixed seed reproduces them exactly — safe for the regression
gate.  Quick mode shrinks the per-tenant request count: wiring
coverage, not meaningful numbers (the isolation asserts need the
full-scale backlog to form and are gated accordingly).
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.serve import ServeEngine, TenantSpec

N_CHANNELS = 4
N_REQUESTS = 120 if QUICK else 600
N_VICTIMS = 3
VICTIM_RATE = 8.0
NOISY_RATE = VICTIM_RATE * 10.0  # the 10x noisy neighbor
SLO_US = 2_000.0

#: Declared isolation bound: under weighted-fair scheduling the victim's
#: p99 must stay within this factor of its isolated-run p99 despite the
#: 10x neighbor.  FIFO fails this bound by a wide margin (its ratio is
#: additionally asserted to exceed WFQ's).
WFQ_ISOLATION_BOUND = 5.0


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "edf_noisy_p99_us": 12577.260306985956,
    "edf_rejected": 0.0,
    "edf_victim_p99_ratio": 9.351910460333743,
    "edf_victim_p99_us": 11380.234804890839,
    "edf_victim_violation_rate": 0.3333333333333333,
    "fifo_noisy_p99_us": 12577.260306985956,
    "fifo_over_wfq_victim_p99": 2.550125223169944,
    "fifo_rejected": 0.0,
    "fifo_victim_p99_ratio": 9.351910460333743,
    "fifo_victim_p99_us": 11380.234804890839,
    "fifo_victim_violation_rate": 0.3333333333333333,
    "isolated_victim_p99_us": 1216.8887686810372,
    "wfq_noisy_p99_us": 21456.59404499774,
    "wfq_rejected": 0.0,
    "wfq_victim_p99_ratio": 3.667235779390006,
    "wfq_victim_p99_us": 4462.618032044948,
    "wfq_victim_violation_rate": 0.11666666666666667,
}


def make_system():
    ssd = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)
    config = SystemConfig(
        ssd=ssd,
        footprint_pages=ssd.logical_pages,
        buffer_pages=512,
        hotness_window=256,
    )
    return build_system("flexlevel", config)


def shared_specs():
    n_tenants = N_VICTIMS + 1
    return [
        TenantSpec(
            tenant_id=i,
            workload="fin-2",
            n_requests=N_REQUESTS,
            rate_x=VICTIM_RATE if i < N_VICTIMS else NOISY_RATE,
            slo_us=SLO_US,
        )
        for i in range(n_tenants)
    ]


def isolated_spec():
    # A lone tenant's stream is normalized by n_tenants=1, so matching
    # the in-mix per-tenant arrival rate means dividing rate_x by the
    # mix size: same mean interarrival gap, whole device to itself.
    return TenantSpec(
        tenant_id=0,
        workload="fin-2",
        n_requests=N_REQUESTS,
        rate_x=VICTIM_RATE / (N_VICTIMS + 1),
        slo_us=SLO_US,
    )


def run_all():
    runs = {}
    runs["isolated"] = ServeEngine(
        make_system(), [isolated_spec()], seed=BENCH_SEED,
        scheduler="fifo", n_channels=N_CHANNELS,
    ).run()
    for scheduler in ("fifo", "wfq", "edf"):
        runs[scheduler] = ServeEngine(
            make_system(), shared_specs(), seed=BENCH_SEED,
            scheduler=scheduler, n_channels=N_CHANNELS,
        ).run()
    return runs


def test_multi_tenant_qos(results_dir):
    runs = run_all()

    iso_p99 = runs["isolated"].tenant_quantile(0, 99)
    metrics = {"isolated_victim_p99_us": iso_p99}
    lines = [
        f"{N_VICTIMS} victims (rate {VICTIM_RATE:g}x) + 1 noisy neighbor "
        f"(rate {NOISY_RATE:g}x), {N_REQUESTS} requests/tenant, "
        f"{N_CHANNELS} channels, SLO {SLO_US:g} us",
        f"isolated victim p99: {iso_p99:.1f} us",
        "",
        f"{'scheduler':10s} {'victim p99':>11s} {'ratio':>7s} "
        f"{'noisy p99':>11s} {'victim viol%':>12s} {'fleet p99':>11s} "
        f"{'rejected':>9s}",
    ]
    for scheduler in ("fifo", "wfq", "edf"):
        result = runs[scheduler]
        victim_p99 = result.tenant_quantile(0, 99)
        noisy_p99 = result.tenant_quantile(N_VICTIMS, 99)
        ratio = victim_p99 / iso_p99
        victim = result.tenant_summary(0)
        fleet = result.fleet_summary()
        metrics[f"{scheduler}_victim_p99_us"] = victim_p99
        metrics[f"{scheduler}_victim_p99_ratio"] = ratio
        metrics[f"{scheduler}_noisy_p99_us"] = noisy_p99
        metrics[f"{scheduler}_victim_violation_rate"] = victim[
            "slo_violation_rate"
        ]
        metrics[f"{scheduler}_rejected"] = float(fleet["rejected"])
        lines.append(
            f"{scheduler:10s} {victim_p99:11.1f} {ratio:7.2f} "
            f"{noisy_p99:11.1f} {victim['slo_violation_rate']:12.1%} "
            f"{fleet['p99_response_us']:11.1f} {fleet['rejected']:9d}"
        )
    metrics["fifo_over_wfq_victim_p99"] = (
        metrics["fifo_victim_p99_us"] / metrics["wfq_victim_p99_us"]
    )
    lines.append(
        f"\nfifo victim p99 / wfq victim p99: "
        f"{metrics['fifo_over_wfq_victim_p99']:.2f} "
        f"(wfq isolation bound: {WFQ_ISOLATION_BOUND:g}x isolated)"
    )
    write_table(results_dir, "multi_tenant_qos", lines)
    if QUICK:
        assert metrics == QUICK_PINS

    # Structural invariants hold at any scale: identical offered work
    # (completions may differ — a scheduler that makes the flooder eat
    # its own backlog overflows the flooder's SQ into counted
    # rejections), full conservation, no silent drops.
    submitted = {
        runs[s].fleet_summary()["submitted"] for s in ("fifo", "wfq", "edf")
    }
    assert len(submitted) == 1
    for result in runs.values():
        fleet = result.fleet_summary()
        assert fleet["submitted"] == fleet["completed"] + fleet["rejected"]

    # The isolation claim needs full-scale backlogs; quick mode is
    # wiring coverage only.
    if not QUICK:
        assert metrics["wfq_victim_p99_ratio"] <= WFQ_ISOLATION_BOUND
        assert (
            metrics["fifo_victim_p99_ratio"]
            > metrics["wfq_victim_p99_ratio"]
        )
