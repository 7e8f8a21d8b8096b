"""Per-layer timing for the traced benchmark run.

:data:`CALLABLES` is the one table of public ``repro`` callables the
traced run times.  :class:`CallTimer` replaces each with a timing shim
for the duration of a ``with`` block and puts the originals back on
exit.  The shims keep a call stack, so every callable gets both its
inclusive time and its exclusive ("self") time: inclusive minus the
time spent in wrapped callables it called.  Self times never overlap,
so per-layer self shares of a repetition's wall time, plus the share
no wrapped callable covers (``other``), sum to exactly 1.

The layers are the package's modules.  Each entry names the object the
caller looks the callable up on: a class for methods, and for plain
functions the module whose namespace the caller resolves the name in
(``spawn_streams`` is called from ``repro.serve.server``).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

#: (metric name, module, attribute path); the name's first dotted part
#: is the layer.
CALLABLES: tuple[tuple[str, str, str], ...] = (
    ("traces.workload.generate", "repro.traces.synthetic", "SyntheticWorkload.generate"),
    ("traces.spawn_streams", "repro.serve.server", "spawn_streams"),
    ("sim.heap.push", "repro.sim.des.events", "EventHeap.push"),
    ("sim.heap.pop", "repro.sim.des.events", "EventHeap.pop"),
    ("sim.scheduler.admit", "repro.sim.des.scheduler", "ChannelScheduler.admit"),
    ("sim.scheduler.commit", "repro.sim.des.scheduler", "ChannelScheduler.commit"),
    (
        "sim.scheduler.add_background",
        "repro.sim.des.scheduler",
        "ChannelScheduler.add_background",
    ),
    ("sim.retry.sample_outcome", "repro.sim.des.retry", "ReadRetryModel.sample_outcome"),
    (
        "baselines.read_page_breakdown",
        "repro.baselines.systems",
        "StorageSystem.read_page_breakdown",
    ),
    (
        "baselines.serve_write_page",
        "repro.baselines.systems",
        "StorageSystem.serve_write_page",
    ),
    ("core.access_eval.on_read", "repro.core.access_eval", "AccessEval.on_read"),
    ("core.hlo.observe_read", "repro.core.hlo", "HloIdentifier.observe_read"),
    (
        "core.level_adjust.extra_levels",
        "repro.core.level_adjust",
        "LevelAdjustPolicy.extra_levels",
    ),
    ("core.level_adjust.ber", "repro.core.level_adjust", "LevelAdjustPolicy.ber"),
    ("device.ber.bit_error_rate", "repro.device.ber", "BerAnalyzer.bit_error_rate"),
    ("ftl.ssd.read_info", "repro.ftl.ssd", "Ssd.read_info"),
    ("ftl.ssd.host_write", "repro.ftl.ssd", "Ssd.host_write"),
    ("ftl.ssd.migrate", "repro.ftl.ssd", "Ssd.migrate"),
    ("ftl.ssd.channel_of", "repro.ftl.ssd", "Ssd.channel_of"),
    ("ftl.write_buffer.write", "repro.ftl.write_buffer", "WriteBuffer.write"),
    ("ftl.write_buffer.read_hit", "repro.ftl.write_buffer", "WriteBuffer.read_hit"),
    ("ecc.ldpc.encode", "repro.ecc.ldpc.code", "LdpcCode.encode"),
    ("ecc.channel.transmit", "repro.ecc.ldpc.channel", "NandReadChannel.transmit"),
    ("ecc.channel.llrs_for", "repro.ecc.ldpc.channel", "NandReadChannel.llrs_for"),
    ("ecc.minsum.decode", "repro.ecc.ldpc.decoder", "MinSumDecoder.decode"),
    ("ecc.bch.encode", "repro.ecc.bch", "BchCode.encode"),
    ("ecc.bch.decode", "repro.ecc.bch", "BchCode.decode"),
    ("serve.source.next_request", "repro.serve.server", "QueuePairSource.next_request"),
    ("serve.source.on_complete", "repro.serve.server", "QueuePairSource.on_complete"),
    ("serve.wfq.select", "repro.serve.qos", "WeightedFairScheduler.select"),
    ("obs.tracer.begin_request", "repro.obs.tracing", "Tracer.begin_request"),
    ("obs.tracer.finish_request", "repro.obs.tracing", "Tracer.finish_request"),
    ("obs.per_tenant_reports", "repro.serve.slo", "per_tenant_reports"),
)

#: Layer names, in the order the benchmark reports them.
LAYERS: tuple[str, ...] = (
    "traces", "sim", "baselines", "core", "device", "ftl", "ecc", "serve", "obs",
)


def layer_of(name: str) -> str:
    """The layer a callable's metric name belongs to."""
    return name.split(".", 1)[0]


def _resolve(module: str, path: str) -> tuple[object, str]:
    """The object holding the callable, and its attribute name there."""
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"{module}:{path} is not defined on {owner!r}")
    return owner, attr


class CallTimer:
    """Times every callable of a table while installed.

    Use as a context manager; ``calls``, ``inclusive_s`` and ``self_s``
    accumulate across everything run inside the block (take
    :meth:`snapshot` before and after a region to isolate it).
    ``clock`` is injectable so tests can drive the shims with a fake
    clock.
    """

    def __init__(
        self,
        table: tuple[tuple[str, str, str], ...] = CALLABLES,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.table = table
        self.clock = clock
        names = [name for name, _, _ in table]
        self.calls = dict.fromkeys(names, 0)
        self.inclusive_s = dict.fromkeys(names, 0.0)
        self.self_s = dict.fromkeys(names, 0.0)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "CallTimer":
        try:
            for name, module, path in self.table:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                setattr(owner, attr, self._shim(name, original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _shim(self, name: str, fn: Callable) -> Callable:
        clock = self.clock
        stack = self._stack
        calls, inclusive, exclusive = self.calls, self.inclusive_s, self.self_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                inclusive[name] += elapsed
                exclusive[name] += elapsed - children

        return timed

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, inclusive s, self s)}`` accumulated so far."""
        return {
            name: (self.calls[name], self.inclusive_s[name], self.self_s[name])
            for name in self.calls
        }


def delta(
    before: dict[str, tuple[int, float, float]],
    after: dict[str, tuple[int, float, float]],
) -> dict[str, tuple[int, float, float]]:
    """Per-callable totals accumulated between two snapshots."""
    return {
        name: tuple(a - b for a, b in zip(after[name], before[name]))
        for name in after
    }


def self_shares(
    totals: dict[str, tuple[int, float, float]], wall_s: float
) -> dict[str, float]:
    """Self time as a share of ``wall_s``, per callable and per layer.

    Keys are the callable names, each layer name, and ``other`` (wall
    time no wrapped callable accounts for); the layers plus ``other``
    sum to 1.
    """
    if wall_s <= 0.0:
        raise ValueError(f"non-positive wall time: {wall_s}")
    per_call = {name: total[2] / wall_s for name, total in totals.items()}
    per_layer = {
        layer: sum(
            share for name, share in per_call.items() if layer_of(name) == layer
        )
        for layer in LAYERS
    }
    return {**per_call, **per_layer, "other": 1.0 - sum(per_layer.values())}
