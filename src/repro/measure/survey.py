"""The §4.1 user survey (Figure 3).

371 responses collected on Tsinghua's BBS in July 2015.  The published
marginals are encoded as data; a seeded sampler draws synthetic
respondent populations whose empirical distribution converges to them
(useful for resampling-style confidence intervals on the figure).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import MeasurementError
from ..sim import RngRegistry

#: Published marginals.
TOTAL_RESPONDENTS = 371
BYPASS_SHARE = 0.26
#: Of those who bypass:
METHOD_SHARES: t.Dict[str, float] = {
    "vpn": 0.43,
    "shadowsocks": 0.21,
    "tor": 0.02,
    "other": 0.34,
}
#: Of VPN users:
VPN_FLAVOR_SHARES: t.Dict[str, float] = {
    "native-vpn": 0.93,
    "openvpn": 0.07,
}


@dataclass(frozen=True)
class Respondent:
    """One synthetic survey answer."""

    bypasses: bool
    method: t.Optional[str]  # None when not bypassing


def expected_counts() -> t.Dict[str, float]:
    """Expected respondent counts per category."""
    bypassers = TOTAL_RESPONDENTS * BYPASS_SHARE
    counts: t.Dict[str, float] = {"no-bypass": TOTAL_RESPONDENTS - bypassers}
    for method, share in METHOD_SHARES.items():
        if method == "vpn":
            for flavor, flavor_share in VPN_FLAVOR_SHARES.items():
                counts[flavor] = bypassers * share * flavor_share
        else:
            counts[method] = bypassers * share
    return counts


def sample_population(total: int = TOTAL_RESPONDENTS,
                      seed: int = 2015) -> t.List[Respondent]:
    """Draw a synthetic population matching the published marginals.

    Sampling draws from a ``"survey.population"`` registry stream seeded
    with ``seed``, so regeneration is seed-stable.
    """
    if total <= 0:
        raise MeasurementError("population must be positive")
    # Standalone Figure-3 harness: no Simulator (and hence no
    # kernel-owned registry) exists here, so a private registry
    # seeded from the explicit argument is the deterministic choice.
    rng = RngRegistry(seed).stream("survey.population")  # reprolint: disable=rng-stream-registry
    population: t.List[Respondent] = []
    methods = list(METHOD_SHARES)
    weights = [METHOD_SHARES[m] for m in methods]
    for _ in range(total):
        if rng.random() >= BYPASS_SHARE:
            population.append(Respondent(bypasses=False, method=None))
            continue
        method = rng.choices(methods, weights=weights)[0]
        if method == "vpn":
            flavors = list(VPN_FLAVOR_SHARES)
            flavor_weights = [VPN_FLAVOR_SHARES[f] for f in flavors]
            method = rng.choices(flavors, weights=flavor_weights)[0]
        population.append(Respondent(bypasses=True, method=method))
    return population


def tabulate(population: t.Sequence[Respondent]) -> t.Dict[str, int]:
    """Counts per category, Figure 3 style."""
    counts: t.Dict[str, int] = {}
    for respondent in population:
        key = respondent.method if respondent.bypasses else "no-bypass"
        counts[key] = counts.get(key, 0) + 1
    return counts


def figure3_distribution(population: t.Sequence[Respondent]) -> t.Dict[str, float]:
    """The figure's reported fractions, from a (synthetic) population."""
    counts = tabulate(population)
    total = len(population)
    bypassers = total - counts.get("no-bypass", 0)
    if bypassers == 0:
        raise MeasurementError("no bypassers in population")
    vpn = counts.get("native-vpn", 0) + counts.get("openvpn", 0)
    return {
        "bypass-share": bypassers / total,
        "vpn": vpn / bypassers,
        "native-vpn-within-vpn": (counts.get("native-vpn", 0) / vpn) if vpn else 0.0,
        "openvpn-within-vpn": (counts.get("openvpn", 0) / vpn) if vpn else 0.0,
        "shadowsocks": counts.get("shadowsocks", 0) / bypassers,
        "tor": counts.get("tor", 0) / bypassers,
        "other": counts.get("other", 0) / bypassers,
    }
