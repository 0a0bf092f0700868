"""The gate's stated tolerance (`tools/gate_precision.py`), at a small size."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from gate_precision import TOLERANCE_BINS, measure  # noqa: E402


def test_gated_frames_keep_the_stated_tolerance():
    # one seed of each link, the criterion-5 link with a 1-byte payload
    rows = [*measure("criterion-5", seeds=(1,), payload=b"\x41"),
            *measure("criterion-6", seeds=(1,)), *measure("criterion-7", seeds=(1,))]
    assert [(row.link, row.gate) for row in rows] == [
        ("criterion-5", 4), *[("criterion-6", 16)] * 3, ("criterion-6", 8),
        ("criterion-7", 4), ("criterion-7", 8), ("criterion-7", 16), ("criterion-7", 32)]
    assert all(row.settled > 0 for row in rows)
    assert max(row.max_bins for row in rows) <= TOLERANCE_BINS
    # where the full-rate receiver decodes, the gated one decodes the same bits
    assert all(row.matches == row.seeds for row in rows if row.ber_full == 0.0)
    assert all(row.ber_gated <= row.ber_full for row in rows)
