"""Device oracle: the mapping side of every declared device, pinned by digest.

For each device one sha256 covers:

* its merged application graph — sorted actor reprs, sorted channel
  reprs and the required rate;
* its SoC — ``platform.name`` and ``platform.describe()``;
* its runtime contract — default scheduler and sorted per-kind rates;
* the greedy mapping's ``SystemReport.summary()`` at ``iterations=3``.

``tests/golden_reports.json`` pins the runtime side; this file pins what
the mapper sees, so a refactor of how devices are declared must leave
``tests/device_oracle.json`` untouched.  Re-record (only for an intended
change to a device, and say so in the change log) with::

    PYTHONPATH=src python tests/test_device_oracle.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.core import DEVICES, MultimediaSystem

ORACLE_PATH = os.path.join(os.path.dirname(__file__), "device_oracle.json")

DEVICE_NAMES = sorted(DEVICES)


def device_digest(name: str) -> str:
    device = DEVICES[name]
    application, platform = device.application(), device.platform()
    graph = application.graph
    summary = MultimediaSystem(name, [application], platform).map(
        algorithm="greedy", iterations=3
    ).summary()
    parts = [
        *sorted(repr(a) for a in graph.actors.values()),
        *sorted(repr(c) for c in graph.channels.values()),
        repr(application.required_rate_hz),
        platform.name,
        platform.describe(),
        device.scheduler,
        repr(sorted(device.rates_hz.items())),
        summary,
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_every_device_is_pinned():
    with open(ORACLE_PATH) as fh:
        assert sorted(json.load(fh)) == DEVICE_NAMES


@pytest.mark.parametrize("name", DEVICE_NAMES)
def test_device_matches_oracle(name):
    with open(ORACLE_PATH) as fh:
        assert device_digest(name) == json.load(fh)[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_device_oracle.py --record")
    digests = {name: device_digest(name) for name in DEVICE_NAMES}
    with open(ORACLE_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} devices to {ORACLE_PATH}")
