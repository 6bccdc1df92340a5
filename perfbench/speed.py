"""The machine's current pure-Python speed, read from a fixed calibration loop.

The shared hosts this benchmark runs on change speed by a factor of up to
2 from one second to the next (other tenants, frequency), which swamps the
differences a benchmark is meant to show.  So every op is bracketed by two
runs of ``calibrate()``, a fixed loop of the kind of work the library does
(dicts keyed by tuples, int and Fraction arithmetic) that imports nothing
from the library, and its latency is reported at reference speed:

    reference time = measured time * REFERENCE_S / mean(calibration before, after)

``REFERENCE_S`` is what one calibration takes at the reference speed, close
to what it takes on a 2-vCPU x86-64 cloud host with Python 3.11 when that
host is neither throttled nor boosted, so reference times read like raw
times there.  The raw times are printed in the record next to them.  Ops
that spend their time in numpy on large arrays (``Op.at_reference``) do not
follow this loop and are reported raw.

Set-up times do not follow it either: set-up is mostly starting an
interpreter and importing modules.  Each set-up is bracketed instead by two
runs of ``start_probe()``, a fresh interpreter that imports a fixed set of
standard-library modules and exits, and reported at the speed where that
takes ``REFERENCE_START_S``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.010
REFERENCE_START_S = 0.085
_START_PROBE = "import argparse, dataclasses, decimal, fractions, json, random, statistics, typing"
_ROUNDS = 8400


def _kernel(rounds):
    table = {}
    acc = Fraction(0)
    total = 0
    for i in range(rounds):
        key = (i % 29, i % 7, i & 3)
        table[key] = table.get(key, 0) + i * i
        total += (i * 2654435761) % 1000003
        if i % 16 == 0:
            acc += Fraction(i % 13 + 1, i % 11 + 2)
    return len(table), total, acc


def calibrate():
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    _kernel(_ROUNDS)
    return time.perf_counter() - t0


def start_probe():
    """Seconds a fresh interpreter takes now to import the probe's modules and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _START_PROBE], check=True)
    return time.perf_counter() - t0


def at_reference(seconds, before, after, reference=REFERENCE_S):
    """`seconds` measured between probes `before` and `after`, at reference speed.

    `reference` is what the probe takes at reference speed: ``REFERENCE_S``
    for ``calibrate()``, ``REFERENCE_START_S`` for ``start_probe()``.
    """
    return seconds * reference * 2.0 / (before + after)
