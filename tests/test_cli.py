"""Command-line interface: subcommands, exit codes, file transparency."""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightleak
from lightleak import ChannelConfig, SymbolAlphabet, _kernels, cli, fileio
from lightleak.traces import SensorTrace

FAST_CONFIG = """\
# cheap clean link for CLI tests
noise_sigma = 0.0
ambient_intensity = 0.0
fade_duration = 0.001
sensor_time_constant = 0.0005
max_command_rate = 1000
symbol_period = 0.003
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def test_simulate_clean_exit_zero(config_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--seed", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = out.read_text()
    assert "payload_hex=41" in text
    assert "ber=0.0" in text


def test_simulate_stdout(config_file, capsys):
    rc = cli.main(["simulate", "--payload-hex", "5a", "--config", config_file])
    assert rc == cli.EXIT_OK
    assert "payload_hex=5a" in capsys.readouterr().out


def test_simulate_identical_seeds_byte_identical(config_file, tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    args = ["simulate", "--payload-hex", "cafe", "--config", config_file,
            "--seed", "7", "--set", "noise_sigma=0.002"]
    assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_two(config_file):
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--set", "distance=-1"])
    assert rc == cli.EXIT_CONFIG_ERROR


def test_unknown_config_key_exit_two(config_file):
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--set", "does_not_exist=1"])
    assert rc == cli.EXIT_CONFIG_ERROR


def test_bad_payload_hex_exit_two(config_file):
    rc = cli.main(["simulate", "--payload-hex", "zz", "--config", config_file])
    assert rc == cli.EXIT_CONFIG_ERROR


def test_unknown_tracker_exit_two(config_file):
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--set", "tracker=wavelet"])
    assert rc == cli.EXIT_CONFIG_ERROR


def test_decode_error_exit_one(config_file, capsys):
    # impossible channel: huge noise at distance, calibration must fail
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--set", "noise_sigma=1.0", "--set", "distance=0.4",
                   "--set", "ambient_intensity=0.01"])
    assert rc == cli.EXIT_DECODE_ERROR
    err = capsys.readouterr().err
    assert "CalibrationError" in err
    assert "stage: calibrate" in err


def test_transmit_render_decode_chain(config_file, tmp_path):
    sched_path = tmp_path / "sched.txt"
    trace_path = tmp_path / "sensor.bin"
    report_path = tmp_path / "report.txt"

    rc = cli.main(["transmit", "--payload-hex", "4869", "--config", config_file,
                   "--out", str(sched_path)])
    assert rc == cli.EXIT_OK
    sched = fileio.import_schedule(sched_path)
    assert len(sched) > 0

    rc = cli.main(["render", "--schedule", str(sched_path), "--config", config_file,
                   "--seed", "3", "--out", str(trace_path)])
    assert rc == cli.EXIT_OK

    rc = cli.main(["decode", "--trace", str(trace_path), "--config", config_file,
                   "--payload-hex", "4869", "--out", str(report_path)])
    assert rc == cli.EXIT_OK
    assert "payload_hex=4869" in report_path.read_text()


def test_decode_without_reference_uses_parity(config_file, tmp_path):
    sched_path = tmp_path / "sched.txt"
    trace_path = tmp_path / "sensor.bin"
    cli.main(["transmit", "--payload-hex", "ff00", "--config", config_file,
              "--out", str(sched_path)])
    cli.main(["render", "--schedule", str(sched_path), "--config", config_file,
              "--out", str(trace_path)])
    rc = cli.main(["decode", "--trace", str(trace_path), "--config", config_file])
    assert rc == cli.EXIT_OK


def test_spectrogram_table(config_file, tmp_path):
    sched_path = tmp_path / "s.txt"
    trace_path = tmp_path / "t.bin"
    table_path = tmp_path / "spec.txt"
    cli.main(["transmit", "--payload-hex", "41", "--config", config_file,
              "--out", str(sched_path)])
    cli.main(["render", "--schedule", str(sched_path), "--config", config_file,
              "--out", str(trace_path)])
    rc = cli.main(["spectrogram", "--trace", str(trace_path), "--config", config_file,
                   "--out", str(table_path)])
    assert rc == cli.EXIT_OK
    lines = table_path.read_text().strip().split("\n")
    assert lines[0].startswith("# window_length=4096 hop=2048 ")
    frames = int(lines[0].split("frames=")[1].split()[0])
    assert frames > 0
    assert len(lines) == frames + 1


def test_sweep_table(config_file, tmp_path):
    out1, out2 = tmp_path / "sweep1.txt", tmp_path / "sweep2.txt"
    args = ["sweep", "--parameter", "noise_sigma", "--values", "0,0.001",
            "--trials", "2", "--payload-hex", "41",
            "--config", config_file, "--seed", "5"]
    rc = cli.main(args + ["--out", str(out1)])
    assert rc == cli.EXIT_OK
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 4
    values = [float(line.split()[0]) for line in lines[2:]]
    assert values == [0.0, 0.001]
    # identical flags and seed give a byte-identical table
    assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_seed_from_set_config_or_flag(config_file, tmp_path):
    """``rng_seed`` seeds the sweep's trials however it is given."""
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(FAST_CONFIG + "rng_seed = 7\n")
    args = ["sweep", "--parameter", "noise_sigma", "--values", "0.01", "--trials", "2",
            "--payload-hex", "41"]
    tables = []
    for extra in (["--config", config_file, "--set", "rng_seed=7"],
                  ["--config", str(seeded)],
                  ["--config", config_file, "--seed", "7"]):
        out = tmp_path / f"sweep{len(tables)}.txt"
        assert cli.main(args + extra + ["--out", str(out)]) == cli.EXIT_OK
        tables.append(out.read_bytes())
    assert b"seed=7 " in tables[0]
    assert tables[0] == tables[1] == tables[2]


def test_warning_is_one_stderr_line(config_file, tmp_path, capsys):
    # 8192-sample windows cannot settle within 0.75 ms symbols; 1024 ones can
    args = ["sweep", "--parameter", "window_length", "--values", "1024,8192",
            "--trials", "2", "--payload-hex", "96", "--config", config_file,
            "--set", "symbol_period=0.00075", "--set", "max_command_rate=4000",
            "--set", "fade_duration=0.00025"]
    out = tmp_path / "sweep.txt"
    assert cli.main(args + ["--out", str(out)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: symbol_period 0.00075 s is shorter than the fade plus two analysis "
        "windows (0.0018884 s); slots may not settle"]
    # the table is the same whether or not the warning is shown
    quiet = tmp_path / "quiet.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(args + ["--out", str(quiet)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == quiet.read_bytes()


def test_sweep_counts_a_window_too_big_for_memory_as_errors(config_file, tmp_path, capsys):
    # the 2**30 window (8 GiB of float64) is never built: the trace is shorter
    out = tmp_path / "sweep.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the big window crowds the slots
        rc = cli.main(["sweep", "--parameter", "window_length", "--values", "1024,1073741824",
                       "--trials", "2", "--payload-hex", "41", "--config", config_file,
                       "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    rows = [line.split() for line in out.read_text().splitlines()[2:]]
    assert [(row[0], row[-1]) for row in rows] == [("1024.0", "0"), ("1073741824.0", "2")]


def test_render_explicit_duration(config_file, tmp_path):
    sched_path = tmp_path / "s.txt"
    trace_path = tmp_path / "t.bin"
    cli.main(["transmit", "--payload-hex", "41", "--config", config_file,
              "--out", str(sched_path)])
    rc = cli.main(["render", "--schedule", str(sched_path), "--config", config_file,
                   "--duration", "0.5", "--out", str(trace_path)])
    assert rc == cli.EXIT_OK
    trace = fileio.import_trace(trace_path)
    assert len(trace) == int(0.5 * 10_000_000)


def test_window_length_override(config_file, tmp_path):
    rc = cli.main(["simulate", "--payload-hex", "41", "--config", config_file,
                   "--set", "window_length=2048"])
    assert rc == cli.EXIT_OK


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err
    return err


def test_decode_bad_reference_hex_checked_before_reading_trace(config_file, tmp_path,
                                                               capsys):
    rc = cli.main(["decode", "--trace", str(tmp_path / "never-read.bin"),
                   "--config", config_file, "--payload-hex", "zz"])
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "--payload-hex" in _one_line_error(capsys)


@pytest.mark.parametrize("command", [
    ["simulate", "--payload-hex", "41", "--config", "{missing}"],
    ["decode", "--trace", "{missing}"],
    ["spectrogram", "--trace", "{missing}", "--out", "{tmp}/spec.txt"],
    ["render", "--schedule", "{missing}", "--out", "{tmp}/t.bin"],
])
def test_missing_input_file_exit_two(command, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "absent", tmp=tmp_path) for a in command]
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    assert "absent" in _one_line_error(capsys)


@pytest.mark.parametrize("text, line", [
    ("# initial_level=137\n0.5 135 junk\n", 2),
    ("0.5 135\n", 1),
    ("# initial_level=137\n0.5 135\n0.25 140\n", 3),
])
def test_malformed_schedule_exit_two(config_file, tmp_path, capsys, text, line):
    sched = tmp_path / "sched.txt"
    sched.write_text(text)
    rc = cli.main(["render", "--schedule", str(sched), "--config", config_file,
                   "--out", str(tmp_path / "t.bin")])
    assert rc == cli.EXIT_CONFIG_ERROR
    assert f"line {line}" in _one_line_error(capsys)


def test_malformed_trace_exit_two(config_file, tmp_path, capsys):
    trace = tmp_path / "t.bin"
    trace.write_bytes(b"not a trace file, just a long enough line of plain text")
    rc = cli.main(["decode", "--trace", str(trace), "--config", config_file])
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "magic" in _one_line_error(capsys)


def test_decode_calibration_failure_names_stage(config_file, tmp_path, capsys):
    sched_path, trace_path = tmp_path / "s.txt", tmp_path / "t.bin"
    noisy = ["--set", "noise_sigma=1.0", "--set", "distance=0.4",
             "--set", "ambient_intensity=0.01"]
    cli.main(["transmit", "--payload-hex", "41", "--config", config_file,
              "--out", str(sched_path)])
    cli.main(["render", "--schedule", str(sched_path), "--config", config_file,
              "--out", str(trace_path)] + noisy)
    capsys.readouterr()
    rc = cli.main(["decode", "--trace", str(trace_path), "--config", config_file,
                   "--payload-hex", "41"])
    assert rc == cli.EXIT_DECODE_ERROR
    err = _one_line_error(capsys)
    assert err.startswith("CalibrationError")
    assert err.endswith("[stage: calibrate]")


def _no_render(*args, **kwargs):
    raise AssertionError("rendered despite bad input")


@pytest.mark.parametrize("command, fragment", [
    (["simulate", "--payload-hex", "41", "--set", "window_length=1000"],
     "config error: window_length"),
    (["simulate", "--payload-hex", "41", "--set", "hop=0"], "config error: hop"),
    (["simulate", "--payload-hex", "00" * 256], "config error: --payload-hex"),
    (["transmit", "--payload-hex", "00" * 256, "--out", "{tmp}/s.txt"],
     "config error: --payload-hex"),
    (["decode", "--trace", "{level}"], "input error: "),
    (["spectrogram", "--trace", "{level}", "--out", "{tmp}/spec.txt"], "input error: "),
    (["render", "--schedule", "{sched}", "--duration", "0", "--out", "{tmp}/t.bin"],
     "config error: --duration"),
    (["render", "--schedule", "{sched}", "--duration", "-1", "--out", "{tmp}/t.bin"],
     "config error: --duration"),
    (["render", "--schedule", "{sched}", "--duration", "0.5", "--out", "{tmp}/t.bin"],
     "config error: --duration"),
    (["simulate", "--payload-hex", "41", "--seed", "-1"], "config error: rng_seed"),
    (["sweep", "--parameter", "noise_sigma", "--values", "0", "--seed", "-3"],
     "config error: rng_seed"),
    (["sweep", "--parameter", "window_length", "--values", "4096,4096.5"],
     "config error: window_length"),
    (["sweep", "--parameter", "window_length", "--values", "nan"],
     "config error: sweep values"),
    # a sweep runs every window with half a window as its hop
    (["sweep", "--parameter", "noise_sigma", "--values", "0", "--set", "hop=3"],
     "config error: hop"),
    (["render", "--schedule", "{sched}", "--duration", "nan", "--out", "{tmp}/t.bin"],
     "config error: --duration"),
    (["render", "--schedule", "{sched}", "--duration", "inf", "--out", "{tmp}/t.bin"],
     "config error: --duration"),
    # 10**16 samples: past 2**53, where sample times are no longer exact
    (["render", "--schedule", "{sched}", "--duration", "1e9", "--out", "{tmp}/t.bin"],
     "config error: a trace of 10000000000000000 samples"),
    (["simulate", "--payload-hex", "41", "--config", "{latin1}"],
     "config error: config file"),
    (["simulate", "--payload-hex", "41", "--set", "sample_rate=1e300"],
     "config error: a trace of "),
])
def test_bad_input_exit_two_before_rendering(command, fragment, config_file, tmp_path,
                                             capsys, monkeypatch):
    # a level trace (kind 1, float64), as files written before a trace file held
    # only sensor captures
    level = tmp_path / "level.bin"
    level.write_bytes(fileio._HEADER.pack(fileio.MAGIC, fileio.VERSION, 1, 0, 10_000_000.0,
                                          0.0, 8192) + np.full(8192, 137.0).tobytes())
    sched = tmp_path / "sched.txt"
    sched.write_text("# initial_level=137\n0.5 135\n")  # needs >= 0.501 s
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("distance = 0.1  # 10 cm, \u00e0 peu pr\u00e8s\n".encode("latin-1"))

    # every render, streamed or whole, starts with these kernels
    monkeypatch.setattr(_kernels, "level_fill", _no_render)
    monkeypatch.setattr(_kernels, "pwm_wave", _no_render)
    argv = [a.format(tmp=tmp_path, level=level, sched=sched, latin1=latin1)
            for a in command]
    # the shared config goes first, so a case's own --config wins
    assert cli.main(argv[:1] + ["--config", config_file] + argv[1:]) == cli.EXIT_CONFIG_ERROR
    err = _one_line_error(capsys)
    assert err.startswith(fragment)
    assert "warning:" not in err
    if "{level}" in command:
        assert "trace kind 1 " in err and err.endswith("(at byte 10)")


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from([f.name for cls in (ChannelConfig, SymbolAlphabet)
                            for f in dataclasses.fields(cls)
                            if isinstance(f.default, float)]),
       value=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_config_value_exit_two(key, value):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            mock.patch.object(_kernels, "level_fill", _no_render), \
            mock.patch.object(_kernels, "pwm_wave", _no_render):
        rc = cli.main(["simulate", "--payload-hex", "41", "--set", f"{key}={value}"])
    assert rc == cli.EXIT_CONFIG_ERROR
    line, = err.getvalue().splitlines()
    assert line.startswith(f"config error: config line 1: {key} ")


def _run_module(*args, **kwargs) -> subprocess.CompletedProcess:
    """``python -m lightleak ARGS`` in a fresh interpreter, the package found
    on PYTHONPATH as it is found here; ``kwargs`` go to `subprocess.run`."""
    src = str(Path(lightleak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lightleak", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
                          check=False, **kwargs)


def test_spectrogram_too_big_for_memory_exit_two(tmp_path):
    # hop 1 on a 1 M-sample trace asks for 8.2 GB of frames; under a 4 GiB
    # address-space limit numpy refuses them whatever the host's memory
    resource = pytest.importorskip("resource")
    trace = tmp_path / "t.bin"
    fileio.export_trace(SensorTrace(10_000_000.0, np.zeros(1_000_000, dtype=np.uint8)), trace)
    limit = 4 << 30
    done = _run_module(
        "spectrogram", "--trace", str(trace), "--out", str(tmp_path / "spec.txt"),
        "--set", "hop=1",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == cli.EXIT_CONFIG_ERROR
    assert done.stderr.startswith("config error: a spectrogram of 995905 frames of 2049 bins")
    assert done.stderr.count("\n") == 1


def test_python_m_runs_the_cli():
    done = _run_module("--help")
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.startswith("usage: lightleak")
    done = _run_module("simulate", "--payload-hex", "zz")
    assert done.returncode == cli.EXIT_CONFIG_ERROR
    assert done.stderr == "config error: --payload-hex is not valid hex: 'zz'\n"
