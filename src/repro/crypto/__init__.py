"""Pure-Python crypto substrate: AES, CFB/CTR, KDFs, entropy.

Educational implementations — adequate for the reproduction's loopback
proxies, never for protecting real traffic.
"""

from .aes import AES
from .entropy import shannon_entropy
from .kdf import evp_bytes_to_key, hkdf_like, hmac_sha256
from .modes import CfbCipher, CtrCipher

__all__ = [
    "AES",
    "CfbCipher",
    "CtrCipher",
    "evp_bytes_to_key",
    "hkdf_like",
    "hmac_sha256",
    "shannon_entropy",
]
