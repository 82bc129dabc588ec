"""KVM mitigation features from the related work (Section 5).

The paper positions BM-Hive against the line of work that *reduces*
virtualization overhead instead of removing it:

* **halt polling** — "poll for wake conditions before yielding the
  CPU", avoiding the sleep/wake round trip;
* **ELI (exit-less interrupts)** — "remove the hypervisor from the
  interrupt handling path and let the guest directly and securely
  handle interrupts";
* **co-scheduling** — gang-schedule vCPUs to dodge the lock-holder
  preemption problem.

Each mitigation shrinks one overhead term of the KVM model; none of
them reaches zero — which is the paper's argument. No experiment
sweeps these toggles yet; the unit tests show how close an
aggressively tuned vm-guest can get to a bm-guest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hypervisor.kvm import KvmModel, KvmSpec

__all__ = ["KvmFeatureSet", "apply_features", "LOCK_HOLDER_PREEMPTION_TAX"]

# Fraction of runtime a many-vCPU guest loses to lock-holder preemption
# without co-scheduling (spinning on a lock whose holder is descheduled).
LOCK_HOLDER_PREEMPTION_TAX = 0.03
# Wake-up latency saved by halt polling per interrupt-driven wake.
HALT_POLLING_SAVED_S = 4e-6
# ELI lets the guest take device interrupts without an exit.
ELI_INJECTION_COST_S = 1e-6


@dataclass(frozen=True)
class KvmFeatureSet:
    """Which mitigations are enabled on the vm-hypervisor."""

    halt_polling: bool = False
    exitless_interrupts: bool = False
    co_scheduling: bool = False

    @classmethod
    def stock(cls) -> "KvmFeatureSet":
        return cls()

    @classmethod
    def tuned(cls) -> "KvmFeatureSet":
        return cls(halt_polling=True, exitless_interrupts=True, co_scheduling=True)


def apply_features(spec: KvmSpec, features: KvmFeatureSet) -> KvmSpec:
    """Derive a KvmSpec with the mitigations' effects applied."""
    irq_cost = spec.irq_injection_cost_s
    if features.exitless_interrupts:
        irq_cost = ELI_INJECTION_COST_S
    elif features.halt_polling:
        # Polling removes the sleep/wake half of the injection path.
        irq_cost = max(1e-6, irq_cost - HALT_POLLING_SAVED_S)
    return replace(spec, irq_injection_cost_s=irq_cost)


def effective_cpu_tax(features: KvmFeatureSet, smp_guest: bool = True) -> float:
    """Residual scheduler-induced CPU tax for an SMP guest."""
    if not smp_guest:
        return 0.0
    return 0.0 if features.co_scheduling else LOCK_HOLDER_PREEMPTION_TAX


def tuned_model() -> KvmModel:
    """A KvmModel with every Section 5 mitigation enabled."""
    return KvmModel(apply_features(KvmSpec(), KvmFeatureSet.tuned()))


__all__ += ["effective_cpu_tax", "tuned_model"]
