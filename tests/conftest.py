"""Shared oracles, scenario helpers, a scripted worker, and a guard against
leaked threads.

The oracles here are deliberately independent of the package code paths they
check: frequency is measured by counting toggles, and test tones are
synthesised directly from closed-form phase rather than through the sensor
model.
"""

import itertools
import threading

import numpy as np
import pytest

import lightleak as ll


def measured_frequency(trace) -> float:
    """Toggle-counting frequency oracle: toggles / 2 / duration."""
    values = np.asarray(trace.values if hasattr(trace, "values") else trace)
    toggles = int(np.count_nonzero(np.diff(values.astype(np.int16))))
    return toggles / 2.0 / trace.duration


def synth_square(freq_hz: float, sample_rate: float, n_samples: int,
                 phase0: float = 0.0) -> np.ndarray:
    """Closed-form square wave (values 0/1), independent of the sensor model."""
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    return (np.floor(2.0 * (phase0 + freq_hz * t)) % 2.0).astype(np.float64)


class ScriptedExecutor:
    """A stand-in for `concurrent.futures.ThreadPoolExecutor`, patched in as
    ``dsp.ThreadPoolExecutor``, that makes the receive loop deterministic.

    The loop submits every batch's job to it.  It runs each job on the
    calling thread when its result is asked for, in place of the worker, and
    its futures say whether they are done from ``script``, a sequence of
    booleans read in a cycle: with ``[True]`` every job is handed on, and so
    run, at the loop's next batch; with ``[False]`` only once as many
    batches as there are receivers are queued, or the stream has ended.
    ``events`` logs each ``("submit", future)`` and ``("result", future)``
    in order; a future's ``raised`` is the exception its job raised, or
    None.  A future lets go of its job when it runs and keeps no result, so
    the log pins no batch.
    """

    def __init__(self, script):
        self._script = itertools.cycle(script)
        self.events = []

    def __call__(self, max_workers):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, fn, *args):
        future = _ScriptedFuture(self, fn, args)
        self.events.append(("submit", future))
        return future


class _ScriptedFuture:
    def __init__(self, executor, fn, args):
        self._executor, self._job = executor, (fn, args)
        self.raised = None

    def done(self):
        return next(self._executor._script)

    def result(self):
        self._executor.events.append(("result", self))
        (fn, args), self._job = self._job, None
        try:
            return fn(*args)
        except Exception as exc:
            self.raised = exc
            raise


@pytest.fixture
def fast_link():
    """A cheap, clean link configuration for end-to-end unit tests.

    Short symbols and a slow sensor keep each simulated transmission around
    a quarter of a second of 10 MS/s samples.
    """
    config = ll.ChannelConfig(
        noise_sigma=0.0,
        ambient_intensity=0.0,
        fade_duration=0.001,
        sensor_time_constant=0.0005,
        max_command_rate=1000.0,
    )
    alphabet = ll.SymbolAlphabet(symbol_period=0.003)
    return config, alphabet


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a non-daemon thread alive that was not there before it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    if left:
        pytest.fail(f"the test left threads running: {', '.join(left)}")
