"""Configuration of the fault-injection subsystem.

One frozen dataclass holds every fault knob so a run's fault behaviour
is a single hashable value: manufacture-time bad-block density, the
P/E- and age-dependent program/erase failure laws, the uncorrectable-
read coupling, the spare-block budget and the read-scrub policy.

``enabled`` is the master switch and defaults to False: a default
:class:`FaultConfig` injects nothing, so every fault-free code path is
byte-identical to a build without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the seeded fault injector.

    Parameters
    ----------
    enabled:
        Master switch; when False the injector is inert and the SSD
        behaves exactly as if no injector was attached.
    seed:
        Seed of the fault RNG.  Independent streams are spawned from it
        for bad-block sampling, program failures, erase failures and
        uncorrectable reads, so the schedules do not perturb each other
        (or the read-retry model's stream).
    initial_bad_block_rate:
        Per-block probability of being factory-marked bad (typical NAND
        datasheets allow up to 2 %).
    program_fail_base:
        Program-status failure probability per page program at the
        reference P/E count and zero device age.
    erase_fail_base:
        Erase failure probability per block erase at the reference P/E
        count.
    pe_reference:
        P/E count at which the base rates apply; wear above it
        accelerates failures through the :class:`~repro.device.wear.
        WearModel` sigma law raised to ``wear_exponent``.
    wear_exponent:
        Exponent on the wear-sigma ratio ``sigma(pe)/sigma(pe_ref)``
        in the failure acceleration.
    age_rate_per_khour:
        Linear growth of the program-failure probability per thousand
        hours of device age (trapped-charge accumulation).
    failure_cap:
        Upper bound on any single program/erase failure probability.
    spare_block_fraction:
        Fraction of the drive's blocks budgeted as spares backing
        grown-bad-block retirement; when the budget is spent the drive
        enters read-only degraded mode instead of crashing.
    uncorrectable_scale:
        Multiplier turning the retry ladder's final-round failure
        probability into the probability the read is uncorrectable
        (the top sensing level plus heroic recovery almost always
        salvages the data — but not always).
    scrub_enabled:
        Whether the background read-scrub refreshes pages whose
        predicted BER crossed the sensing trigger.
    scrub_trigger_levels:
        Refresh a page when its required extra sensing levels reach
        this value (1 = the paper's 4e-3 BER trigger).
    scrub_min_age_hours:
        Only refresh pages whose data age is at least this old —
        rewriting freshly-written data cannot lower its BER, so young
        pages are never scrubbed (prevents refresh storms on
        high-P/E drives whose BER is wear- rather than age-driven).
    """

    enabled: bool = False
    seed: int = 2027
    initial_bad_block_rate: float = 0.002
    program_fail_base: float = 2e-4
    erase_fail_base: float = 5e-5
    pe_reference: float = 3000.0
    wear_exponent: float = 2.0
    age_rate_per_khour: float = 0.1
    failure_cap: float = 0.25
    spare_block_fraction: float = 0.02
    uncorrectable_scale: float = 0.02
    scrub_enabled: bool = True
    scrub_trigger_levels: int = 1
    scrub_min_age_hours: float = 24.0

    def __post_init__(self) -> None:
        for name in (
            "initial_bad_block_rate",
            "program_fail_base",
            "erase_fail_base",
            "failure_cap",
            "spare_block_fraction",
            "uncorrectable_scale",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} outside [0, 1]: {value}")
        if self.pe_reference <= 0:
            raise ConfigurationError(f"non-positive pe_reference: {self.pe_reference}")
        if self.wear_exponent < 0:
            raise ConfigurationError(f"negative wear_exponent: {self.wear_exponent}")
        if self.age_rate_per_khour < 0:
            raise ConfigurationError(
                f"negative age_rate_per_khour: {self.age_rate_per_khour}"
            )
        if self.scrub_trigger_levels < 1:
            raise ConfigurationError("scrub_trigger_levels must be >= 1")
        if self.scrub_min_age_hours < 0:
            raise ConfigurationError("negative scrub_min_age_hours")

    def scaled(self, factor: float) -> "FaultConfig":
        """This config with its stochastic fault rates multiplied.

        ``factor`` scales the program/erase failure bases and the
        uncorrectable coupling (each capped at 1.0); the bad-block
        density, spare budget and scrub policy are left alone.  Used by
        the CLI's ``--fault-scale`` and the resilience bench to sweep
        fault pressure without re-deriving every knob.
        """
        if factor < 0:
            raise ConfigurationError(f"negative fault scale: {factor}")
        return replace(
            self,
            program_fail_base=min(1.0, self.program_fail_base * factor),
            erase_fail_base=min(1.0, self.erase_fail_base * factor),
            uncorrectable_scale=min(1.0, self.uncorrectable_scale * factor),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (for manifests and config hashing)."""
        return {
            "enabled": self.enabled,
            "seed": self.seed,
            "initial_bad_block_rate": self.initial_bad_block_rate,
            "program_fail_base": self.program_fail_base,
            "erase_fail_base": self.erase_fail_base,
            "pe_reference": self.pe_reference,
            "wear_exponent": self.wear_exponent,
            "age_rate_per_khour": self.age_rate_per_khour,
            "failure_cap": self.failure_cap,
            "spare_block_fraction": self.spare_block_fraction,
            "uncorrectable_scale": self.uncorrectable_scale,
            "scrub_enabled": self.scrub_enabled,
            "scrub_trigger_levels": self.scrub_trigger_levels,
            "scrub_min_age_hours": self.scrub_min_age_hours,
        }
