"""Block-trace helpers for the tests: a writer and a synthetic trace."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional, Sequence

from pobsim.trace import TraceBlock
from pobsim.scoring import ActionKind


def write_trace(path: str | Path, blocks: Sequence[TraceBlock], header: str = "") -> None:
    """Write `blocks` in the line format `parse_trace` reads."""
    out = []
    if header:
        out.extend(f"# {line}" for line in header.splitlines())
    for b in blocks:
        out.append(
            f"{b.height},{b.proposer},{b.kind.value},{b.base_utility!r},"
            f"{b.phi!r},{b.alpha!r},{int(b.is_exploit)}"
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def make_synthetic_trace(
    n_blocks: int,
    n_validators: int,
    exploit_at: Optional[int],
    exploit_value: float,
    seed: int,
) -> list[TraceBlock]:
    """Generate an honest trace with one optional exploit block."""
    rng = random.Random(seed)
    ids = [f"v{i:04d}" for i in range(n_validators)]
    blocks = []
    for h in range(n_blocks):
        proposer = ids[h % n_validators]
        if exploit_at is not None and h == exploit_at:
            blocks.append(
                TraceBlock(h, proposer, ActionKind.FRAUD, -abs(exploit_value), 1.0, 1.0, True)
            )
            continue
        u_b = round(rng.uniform(0.5, 1.5), 6)
        alpha = round(rng.uniform(0.6, 1.0), 6)
        blocks.append(TraceBlock(h, proposer, ActionKind.PROPOSE, u_b, 1.0, alpha, False))
    return blocks
