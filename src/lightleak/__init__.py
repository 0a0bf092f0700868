"""lightleak: a desk-scale simulator and codec for the smart-bulb covert channel.

Models the whole chain from brightness commands through PWM light, the
optical path and a light-to-frequency sensor, to an STFT receiver and bit
decoder, and quantifies reliability (bit error rate, throughput) and
covertness.
"""

from .bulb import (
    BrightnessCommand,
    CommandSchedule,
    apply_rate_limit,
    duty_cycle,
    fade_profile,
    render_level_trace,
    render_pwm,
)
from .channel import propagate, sensor_response, simulate_link
from .codec import (
    Calibration,
    DecodeReport,
    bits_to_schedule,
    calibrate,
    classify_symbols,
    covertness_check,
    decode_frame,
    encode_frame,
    throughput,
)
from .config import REFERENCE_DISTANCE, ChannelConfig, SymbolAlphabet
from .dsp import (
    FrequencyTrack,
    Spectrogram,
    dominant_frequency,
    hann_window,
    stft,
    zero_crossing_frequency,
)
from .fileio import export_spectrogram, export_trace, import_trace
from .harness import RunResult, SweepSpec, run_end_to_end, sweep
from .traces import IntensityTrace, LevelTrace, PwmTrace, SensorTrace

__version__ = "0.1.0"

__all__ = [
    "BrightnessCommand",
    "Calibration",
    "ChannelConfig",
    "CommandSchedule",
    "DecodeReport",
    "FrequencyTrack",
    "IntensityTrace",
    "LevelTrace",
    "PwmTrace",
    "REFERENCE_DISTANCE",
    "RunResult",
    "SensorTrace",
    "Spectrogram",
    "SweepSpec",
    "SymbolAlphabet",
    "apply_rate_limit",
    "bits_to_schedule",
    "calibrate",
    "classify_symbols",
    "covertness_check",
    "decode_frame",
    "dominant_frequency",
    "duty_cycle",
    "encode_frame",
    "export_spectrogram",
    "export_trace",
    "fade_profile",
    "hann_window",
    "import_trace",
    "propagate",
    "render_level_trace",
    "render_pwm",
    "run_end_to_end",
    "sensor_response",
    "simulate_link",
    "stft",
    "sweep",
    "throughput",
    "zero_crossing_frequency",
]
