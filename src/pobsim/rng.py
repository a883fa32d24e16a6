"""Deterministic named random substreams.

Every trial owns one root seed. Consumers never share a raw generator:
each asks the hub once for each named stream it draws ("election",
"latency/vote", "behavior/v007", ...) and keeps the new generator it
gets, so the hub holds none. Stream seeds are derived by hashing the root
seed with the stream name, so adding a new consumer never perturbs the
draws seen by existing ones, and paired runs that share a root seed see
identical draws on the streams they have in common.
"""

from __future__ import annotations

import random

try:  # SHA-256 without hashlib and its OpenSSL library, as random.py takes SHA-512
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed for substream `name` under `root_seed`."""
    digest = sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngHub:
    """The named substreams of one root seed."""

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def stream(self, name: str) -> random.Random:
        """A new generator for stream `name`, from its start. The hub keeps none:
        each consumer asks for its streams once and keeps them."""
        return random.Random(derive_seed(self.root_seed, name))
