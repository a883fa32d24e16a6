"""Block trace files: one block per line, read into the blocks a replay runs.

Format per line: height,proposer_id,kind,base_utility,phi,alpha,is_exploit
with `#` comments and blank lines allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .config import ScenarioConfig
from .errors import TraceError
from .scoring import ActionKind

TRACE_KINDS = {k.value for k in ActionKind}


@dataclass(frozen=True)
class TraceBlock:
    height: int
    proposer: str
    kind: ActionKind
    base_utility: float
    phi: float
    alpha: float
    is_exploit: bool
    # the 1-based line of the block in its trace file; None for a block built in code
    line: Optional[int] = field(default=None, compare=False)


def parse_trace(source: str | Path | Iterable[str]) -> list[TraceBlock]:
    """Parse a line-oriented block trace (see the module docstring).

    Any deviation (wrong field count, bad types, a non-finite utility,
    out-of-range values) raises TraceError with the line number.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    blocks: list[TraceBlock] = []
    last_height: Optional[int] = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise TraceError(line_no, f"expected 7 fields, found {len(fields)}")
        try:
            height = int(fields[0])
            base_utility = float(fields[3])
            phi = float(fields[4])
            alpha = float(fields[5])
        except ValueError as exc:
            raise TraceError(line_no, f"bad numeric field: {exc}") from None
        if not math.isfinite(base_utility):
            raise TraceError(line_no, f"base_utility {base_utility} is not finite")
        proposer = fields[1].strip()
        kind_str = fields[2].strip()
        exploit_str = fields[6].strip()
        if not proposer:
            raise TraceError(line_no, "empty proposer id")
        if kind_str not in TRACE_KINDS:
            raise TraceError(line_no, f"unknown action kind {kind_str!r}")
        if exploit_str not in ("0", "1"):
            raise TraceError(line_no, f"is_exploit must be 0 or 1, found {exploit_str!r}")
        for name, value in (("phi", phi), ("alpha", alpha)):
            if not 0.0 <= value <= 1.0:
                raise TraceError(line_no, f"{name} {value} outside [0, 1]")
        if last_height is not None and height != last_height + 1:
            raise TraceError(line_no, f"height {height} does not follow {last_height}")
        last_height = height
        is_exploit = exploit_str == "1"
        kind = ActionKind(kind_str)
        if is_exploit:
            kind = ActionKind.FRAUD
            base_utility = -abs(base_utility)
        blocks.append(TraceBlock(height, proposer, kind, base_utility, phi, alpha, is_exploit,
                                 line_no))
    return blocks


def check_trace(config: ScenarioConfig, trace: Sequence[TraceBlock]) -> None:
    """Raise TraceError at the first block whose proposer may not be named at
    its epoch, the block's index in `trace` (`ScenarioConfig.proposer_refusal`
    is the rule). The error names the block's line in its file; a block
    built in code counts as line index + 1."""
    for epoch, tb in enumerate(trace):
        refusal = config.proposer_refusal(tb.proposer, epoch)
        if refusal is not None:
            raise TraceError(epoch + 1 if tb.line is None else tb.line,
                             f"proposer {tb.proposer!r} (block height {tb.height}) {refusal}")
