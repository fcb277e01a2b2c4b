"""Host-speed probe: a fixed workload that imports nothing from ``repro``.

``perfbench/run.py`` launches it as a fresh process next to every timed
process.  It starts an interpreter, imports a fixed set of standard-library
modules and builds and serialises a few thousand dataclass records, the same
kinds of work a campaign process starts with, so it slows down and speeds up
with a shared host while no change to ``repro`` can move it.
"""

import argparse  # noqa: F401
import asyncio  # noqa: F401
import csv  # noqa: F401
import dataclasses
import decimal  # noqa: F401
import email.message  # noqa: F401
import http.client  # noqa: F401
import json
import logging  # noqa: F401
import typing  # noqa: F401
import unittest  # noqa: F401
import xml.etree.ElementTree  # noqa: F401


@dataclasses.dataclass(frozen=True)
class _Record:
    rank: int
    name: str


if __name__ == "__main__":
    records = [_Record(rank, f"d{rank}.example") for rank in range(20_000)]
    json.loads(json.dumps([dataclasses.astuple(record) for record in records]))
