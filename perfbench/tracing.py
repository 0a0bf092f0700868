"""Span tracing of lightleak from outside the package, and per-layer metrics.

``Tracer.install`` replaces every public function defined in each traced
module with a wrapper that records a span, and ``uninstall`` puts the
originals back.  The package calls its own functions through module
attributes and module globals, so inner calls see the wrappers too; private
helpers are not wrapped and their time stays with their public caller.

A span holds its name, start, end, parent span, transmission id and
operation id.  Spans stay in memory and are written out once, at the end.
A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: the span that marks one transmission; its children share its id
TRANSMISSION_SPAN = "harness.run_end_to_end"
#: the benchmark's own span around each public call it times
OP_SPAN = "bench.op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "tx", "op", "error")

    def __init__(self, name, parent, tx, op):
        self.name, self.parent, self.tx, self.op = name, parent, tx, op
        self.start = self.end = 0.0
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(result) -> int:
    """Bytes of the numpy arrays a call returned, directly or as dataclass fields."""
    if hasattr(result, "nbytes"):
        return int(result.nbytes)
    fields = getattr(result, "__dataclass_fields__", None)
    if not fields:
        return 0
    return sum(int(getattr(result, f).nbytes) for f in fields
               if hasattr(getattr(result, f), "nbytes"))


class Tracer:
    """Records spans and per-span counters for the functions it wraps."""

    def __init__(self, layers: dict):
        #: layer name -> module whose public functions become spans
        self.layers = layers
        self.spans: list[Span] = []
        self.bytes_out: Counter = Counter()
        self.counts: Counter = Counter()
        self.render_keys: set = set()
        self._stack: list[int] = []
        self._tx = None
        self._tx_count = 0
        self._op = None
        self._saved: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for layer, module in self.layers.items():
            targets = [(attr, fn) for attr, fn in vars(module).items()
                       if not attr.startswith("_") and inspect.isfunction(fn)
                       and fn.__module__ == module.__name__]
            for attr, fn in targets:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if name == TRANSMISSION_SPAN:
            self._tx_count += 1
            self._tx = self._tx_count
        span = Span(name, parent, self._tx, self._op)
        self.counts[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span, outer_tx) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._tx = outer_tx

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_tx = self._tx
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span, outer_tx)
            self._account(name, signature, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, index: int):
        """Span around one timed public call made by the benchmark."""
        self._op = index
        span = self._open(OP_SPAN)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span, None)
            self._op = None

    def _account(self, name, signature, args, kwargs, result) -> None:
        self.bytes_out[name] += _nbytes(result)
        if name == "dsp.stft":
            self.counts["dsp.frames"] += result.n_frames
        elif name == "bulb.render_level_trace":
            self.render_keys.add(_render_key(signature, args, kwargs))

    # -- reading ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: span time minus its children's time."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: dict = defaultdict(float)
        for span, inner in zip(self.spans, child):
            out[span.name] += span.duration - inner
        return dict(out)

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.error == error)

    def write_spans(self, path, origin: float) -> None:
        """Write one JSON object per span; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start - origin,
                    "end": span.end - origin, "parent": span.parent,
                    "tx": span.tx, "op": span.op, "error": span.error}) + "\n")


def _render_key(signature, args, kwargs):
    """What decides a rendered waveform: the schedule, duration and timing config.

    Two renders with equal keys produce the same level and PWM traces, so the
    number of distinct keys is the number of renders that did useful work.
    """
    try:
        bound = signature.bind(*args, **kwargs).arguments
        config = bound["config"]
        return (bound["schedule"], bound["duration"], config.sample_rate,
                config.fade_duration, config.pwm_frequency)
    except (KeyError, TypeError, AttributeError):
        return object()


#: per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "bulb.level_s": ("bulb.render_level_trace",),
    "bulb.pwm_s": ("bulb.render_pwm",),
    "bulb.rate_limit_s": ("bulb.apply_rate_limit",),
    "kernels.level_fill_s": ("kernels.level_fill",),
    "kernels.pwm_wave_s": ("kernels.pwm_wave",),
    "kernels.lowpass_s": ("kernels.lowpass",),
    "kernels.square_wave_s": ("kernels.square_wave",),
    "channel.propagate_s": ("channel.propagate",),
    "channel.sensor_s": ("channel.sensor_response",),
    "dsp.stft_s": ("dsp.stft", "dsp.hann_window"),
    "dsp.track_s": ("dsp.dominant_frequency", "dsp.zero_crossing_frequency"),
    "codec.encode_s": ("codec.encode_frame",),
    "codec.schedule_s": ("codec.bits_to_schedule",),
    "codec.calibrate_s": ("codec.calibrate",),
    "codec.classify_s": ("codec.classify_symbols",),
    "codec.slots_s": ("codec.symbol_slots",),
    "codec.decode_s": ("codec.decode_frame",),
    "harness.run_self_s": ("harness.run_end_to_end",),
    "harness.sweep_self_s": ("harness.sweep",),
}

#: layers whose returned arrays are summed into ``<layer>.bytes_out``
BYTES_LAYERS = ("bulb", "channel", "dsp")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as ``name -> (value, unit)`` over everything traced."""
    selfs = tracer.self_times()
    metrics = {}
    for layer in (*tracer.layers, "bench"):
        metrics[f"{layer}.self_s"] = (
            sum(t for name, t in selfs.items() if name.startswith(layer + ".")), "s")
    for metric, names in TIME_METRICS.items():
        metrics[metric] = (sum(selfs.get(n, 0.0) for n in names), "s")
    for layer in BYTES_LAYERS:
        metrics[f"{layer}.bytes_out"] = (
            sum(b for name, b in tracer.bytes_out.items() if name.startswith(layer + ".")),
            "B")
    counts = tracer.counts
    metrics["bulb.render_calls"] = (counts["bulb.render_level_trace"], "count")
    metrics["bulb.render_distinct"] = (len(tracer.render_keys), "count")
    metrics["dsp.frames"] = (counts["dsp.frames"], "count")
    metrics["codec.symbol_slots_calls"] = (counts["codec.symbol_slots"], "count")
    metrics["codec.calib_failures"] = (
        tracer.errors("codec.calibrate", "CalibrationError"), "count")
    metrics["harness.runs"] = (counts["harness.run_end_to_end"], "count")
    return metrics
