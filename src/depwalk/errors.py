"""Exception types shared across the package."""


class DepwalkError(Exception):
    """Base class for errors raised by depwalk."""


class ConfigError(DepwalkError):
    """A configuration value or combination of values is invalid."""


class UnknownAddressError(DepwalkError):
    """An address is not present in the vertex index."""

    def __init__(self, address: str):
        super().__init__(f"unknown address: {address}")


class StageError(DepwalkError):
    """A pipeline stage failed; ``stage`` names it and the cause is chained."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(str(cause))
        self.stage = stage
