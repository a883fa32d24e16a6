"""Exception types shared across the simulator.

Plain ``ValueError`` / ``KeyError`` are used for garden-variety bad inputs;
the classes here exist where callers need to tell failure modes apart
(config loading, trace parsing, reward pools).
"""


class SimulationError(Exception):
    """Base class for simulator-specific failures."""


class ConfigError(SimulationError):
    """Invalid scenario configuration. Carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"config field '{field}': {message}")

    def __reduce__(self):  # so an error raised in a pool worker reaches the caller as itself
        return type(self), (self.field, self.message)


class TraceError(SimulationError):
    """Malformed block-trace file. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no, self.message = line_no, message
        super().__init__(f"trace line {line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.line_no, self.message)


class RewardPoolError(SimulationError):
    """Reward pool cannot cover the base stipend of the active set."""
