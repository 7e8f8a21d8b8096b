"""Quick Fig-6a tuning sweep: all 7 workloads x 4 systems."""
import sys
import time
import numpy as np
from repro.baselines import SystemConfig, build_system, system_names
from repro.core.level_adjust import LevelAdjustPolicy
from repro.ftl import SsdConfig
from repro.sim import DesSimulationEngine
from repro.traces import make_workload, workload_names

N = int(sys.argv[1]) if len(sys.argv) > 1 else 40000
t0 = time.time()
ssd_cfg = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)
policy = LevelAdjustPolicy()
norm = {s: [] for s in system_names()}
for wname in workload_names():
    wl = make_workload(wname, ssd_cfg.logical_pages)
    trace = wl.generate(N, seed=1)
    means = {}
    extra = {}
    for name in system_names():
        cfg = SystemConfig(ssd=ssd_cfg, footprint_pages=wl.footprint_pages, buffer_pages=512)
        sys_ = build_system(name, cfg, level_adjust=policy)
        engine = DesSimulationEngine(
            sys_, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        res = engine.run(trace, wname)
        s = res.summary()
        means[name] = s['mean_response_us']
        extra[name] = (s['stats.write_amplification'], s['stats.erase_blocks'],
                       s['stats.promotions'], s['stats.mean_extra_levels'],
                       s['stats.total_program_pages'])
    b = means['baseline']
    l = means['ldpc-in-ssd']
    print(f'{wname}: ', end='')
    for name in system_names():
        print(f'{name}={means[name]:9.1f} ({means[name]/b:.2f}B/{means[name]/l:.2f}L) ', end='')
        norm[name].append(means[name]/b)
    wa_l, er_l = extra['ldpc-in-ssd'][0], extra['ldpc-in-ssd'][1]
    wa_f, er_f, pr_f = extra['flexlevel'][0], extra['flexlevel'][1], extra['flexlevel'][2]
    pg_l, pg_f = extra['ldpc-in-ssd'][4], extra['flexlevel'][4]
    print(f'| wr+{(pg_f/max(pg_l,1)-1)*100:.0f}% er+{(er_f/max(er_l,1)-1)*100 if er_l else float("nan"):.0f}% promos={pr_f} xlevL={extra["ldpc-in-ssd"][3]:.2f} xlevF={extra["flexlevel"][3]:.2f}')
print('--- geometric means (normalized to baseline) ---')
for name in system_names():
    gm = float(np.exp(np.mean(np.log(norm[name]))))
    print(f'{name}: {gm:.3f}')
print('elapsed', time.time()-t0)
