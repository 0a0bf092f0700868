"""Exception types shared across the package.

Every exception raised by lightleak derives from LightLeakError so callers can
catch simulator failures without swallowing programming errors.  Pipeline code
annotates exceptions with a ``stage`` attribute before re-raising, so a failure
deep in the chain still identifies where it happened.
"""


class LightLeakError(Exception):
    """Base class for all lightleak errors."""

    #: pipeline stage name, filled in by the harness when known
    stage: str | None = None


class ConfigError(LightLeakError):
    """Invalid configuration (bad parameter value or incompatible settings)."""


class DomainError(LightLeakError, ValueError):
    """An operation was called with inputs outside its documented domain."""


class CalibrationError(LightLeakError):
    """Receiver calibration failed: the channel is too noisy to separate levels."""


class FramingError(LightLeakError):
    """No delimiter structure could be found in the frequency track."""


class SyncError(LightLeakError):
    """The frame preamble could not be located in the recovered bits."""


class TruncationError(LightLeakError):
    """The declared frame length exceeds the available bits."""


class TraceFormatError(LightLeakError):
    """A trace file could not be parsed.

    ``byte_offset`` points at the position where parsing failed.
    """

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte {byte_offset})")
        self.byte_offset = byte_offset


class ScheduleFormatError(DomainError):
    """A schedule file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (at line {line})")
        self.line = line
