"""Deterministic named random substreams.

Every trial owns one root seed. Consumers never share a raw generator;
they ask the hub for a named stream ("election", "latency/vote",
"behavior/v007", ...). Stream seeds are derived by hashing the root seed
with the stream name, so adding a new consumer never perturbs the draws
seen by existing ones, and paired runs that share a root seed see
identical draws on the streams they have in common.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed for substream `name` under `root_seed`."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngHub:
    """Factory and cache for named `random.Random` substreams."""

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = self.fresh(name)
        return rng

    def fresh(self, name: str) -> random.Random:
        """A new, uncached copy of stream `name` from its start: for consumers
        that each draw the whole stream for themselves."""
        return random.Random(derive_seed(self.root_seed, name))

    def drop(self, *names: str) -> None:
        """Forget the named streams; a later `stream` call would restart one from its seed."""
        for name in names:
            self._streams.pop(name, None)
