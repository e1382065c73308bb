"""Canonical fault scripts for the availability experiments.

:func:`standard_fault_script` is the repo's reference failure scenario:
a ~10-minute window containing one of every fault class the paper's
measurement period plausibly saw.  Timing is jittered from an injected
rng stream (use ``testbed.rng.stream("faults.schedule")``) so the
schedule is seed-stable but not metronomic.
"""

from __future__ import annotations

import random
import typing as t

from .schedule import FaultSchedule

if t.TYPE_CHECKING:  # pragma: no cover
    from ..gfw import GreatFirewall


def _escalate(gfw: "GreatFirewall") -> None:
    """The GFW turns the screws mid-session (paper §2.1, Fig. 5c).

    * meek's domain-fronted flows graduate from heavy loss to forged
      RSTs — the 2016-era escalation that made bare meek unusable;
    * Shadowsocks-shaped flows get ~4x the interference drop rate;
    * the keyword reset-penalty window doubles.
    """
    gfw.policy.rst_classes.add("tor-meek")
    gfw.policy.set_interference("shadowsocks", 0.02)
    gfw.config.reset_penalty_seconds *= 2.0


def _block_remote_vm(gfw: "GreatFirewall") -> None:
    from ..measure.testbed import REMOTE_VM_ADDR
    gfw.policy.block_ip(REMOTE_VM_ADDR)


def _unblock_remote_vm(gfw: "GreatFirewall") -> None:
    from ..measure.testbed import REMOTE_VM_ADDR
    gfw.policy.unblock_ip(REMOTE_VM_ADDR)


def overload_storm(rng: random.Random, clients: int = 24,
                   hostname: str = "scholar.google.com") -> FaultSchedule:
    """Overload composed with faults: a flash crowd, then a crash in it.

    1. at ~60 s a flash crowd of ``clients`` held sessions floods the
       domestic proxy for 90 s — with admission control on, the excess
       is shed rather than queued;
    2. mid-storm, at ~120 s, the remote VM crashes and restarts 40 s
       later — the failover pool's breaker opens under the combined
       pressure and must recover once the VM returns;
    3. a border-link brownout from ~150 s overlaps the tail, so the
       recovery happens on a degraded path.

    Timing is jittered from ``rng`` like :func:`standard_fault_script`,
    so one seed yields one byte-identical storm.
    """
    def jittered(base: float, spread: float) -> float:
        return max(0.0, base + rng.uniform(-spread, spread))

    script = FaultSchedule()
    script.load_spike("domestic-vm", at=jittered(60.0, 5.0),
                      duration=90.0, clients=clients, hostname=hostname)
    script.proxy_crash("remote-vm", at=jittered(120.0, 8.0), downtime=40.0)
    script.link_degrade("border", at=jittered(150.0, 5.0),
                        duration=jittered(40.0, 5.0), loss=0.05)
    return script


def standard_fault_script(rng: random.Random) -> FaultSchedule:
    """The reference scenario used by the fault-matrix bench.

    1. a border-link brownout (8% loss) early on — pure path noise;
    2. the shared remote VM crashes and restarts ~1 minute later —
       per-endpoint services vanish, the GFW is not involved;
    3. a permanent GFW policy escalation (see :func:`_escalate`);
    4. an Ensafi-style spatiotemporal IP-block burst of the remote VM's
       address, lifted after ~2 minutes;
    5. a DNS-poison burst for the US control site — which every
       tunneled method should absorb, since none resolve through the
       poisoned campus path.
    """
    def jittered(base: float, spread: float) -> float:
        return max(0.0, base + rng.uniform(-spread, spread))

    script = FaultSchedule()
    script.link_degrade("border", at=jittered(45.0, 5.0),
                        duration=jittered(25.0, 5.0), loss=0.08)
    script.proxy_crash("remote-vm", at=jittered(150.0, 10.0),
                       downtime=jittered(55.0, 8.0))
    script.gfw_policy(jittered(255.0, 10.0), "escalation", _escalate)
    script.gfw_policy(jittered(330.0, 10.0), "ip-block-burst",
                      _block_remote_vm, revert=_unblock_remote_vm,
                      duration=jittered(110.0, 10.0))
    script.dns_poison_burst(jittered(470.0, 10.0), jittered(50.0, 5.0),
                            domain="uscontrol.example")
    return script
