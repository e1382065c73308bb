"""Shannon entropy estimation over byte strings.

The GFW's entropy-based DPI heuristic (flagging fully-random-looking
first packets, a known Shadowsocks tell) uses this estimator; the
realnet proxies use it in tests to demonstrate that ciphertext and
blinded streams really are high-entropy.
"""

from __future__ import annotations

import math
import typing as t


def shannon_entropy(data: bytes) -> float:
    """Empirical entropy of ``data`` in bits per byte (0..8)."""
    if not data:
        return 0.0
    counts: t.Dict[int, int] = {}
    for byte in data:
        counts[byte] = counts.get(byte, 0) + 1
    total = len(data)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy
