"""Command-line interface: subcommands, exit codes, file transparency."""

import pytest

from lightleak import cli, fileio

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
    spec = fileio.import_spectrogram(table_path)
    assert spec.n_frames > 0


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
