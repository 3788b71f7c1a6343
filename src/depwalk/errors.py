"""Exception types shared across the package."""


class DepwalkError(Exception):
    """Base class for errors raised by depwalk."""


class ConfigError(DepwalkError):
    """A configuration value or combination of values is invalid."""


class UnknownAddressError(DepwalkError):
    """An address is not present in the vertex index."""

    def __init__(self, address: str):
        super().__init__(f"unknown address: {address}")
        self.address = address


class LabelBalanceError(DepwalkError):
    """Not enough non-dependency pairs to balance the positive labels."""


class NegativeWalkError(DepwalkError):
    """Rejection sampling for negative walks exhausted its retry budget."""


class TrainingDivergedError(DepwalkError):
    """Embedding training produced a non-finite loss."""


class EvaluationError(DepwalkError):
    """A train/test split or metric computation cannot be performed."""


class StageError(DepwalkError):
    """A pipeline stage failed; ``stage`` names it and the cause is chained."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(str(cause))
        self.stage = stage
