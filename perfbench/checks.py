"""Output checks: digests of unit outputs and the tally of failed units.

A unit's output is the plain-dict form of what the program returned
(``ResultSummary.to_dict()``, or the ``repro run --json`` document).
Its digest ignores every ``elapsed_s`` field, at any depth, because
wall-clock cost is the one field that is not a function of the inputs;
any other change to the output changes the digest.

Digests for the default seed and one held-out seed are pinned in
``digests.json`` (written by ``pin.py``). For any other seed there is
nothing to compare against, so the digest check reports ``unchecked``;
the seed-independent checks (every pass and every replay reproduces
the first pass, outputs are in range) still run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def strip_elapsed(value):
    """``value`` with every ``elapsed_s`` entry set to 0."""
    if isinstance(value, dict):
        return {
            key: 0.0 if key == "elapsed_s" else strip_elapsed(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [strip_elapsed(item) for item in value]
    return value


def digest(doc) -> str:
    """Short content hash of one output document, ``elapsed_s`` ignored."""
    canonical = json.dumps(strip_elapsed(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_pins(workload: str, seed: int) -> Optional[list[str]]:
    """Pinned per-unit digests for this workload and seed, if any."""
    if not DIGESTS_PATH.exists():
        return None
    pins = json.loads(DIGESTS_PATH.read_text())
    return pins.get("workloads", {}).get(workload, {}).get(str(seed))


def in_range(doc: dict) -> bool:
    """Outputs every correct summary satisfies, whatever the seed."""
    for name in ("quality_score", "lost_frame_fraction", "packet_drop_fraction"):
        value = doc.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return (
        0.0 <= doc["lost_frame_fraction"] <= 1.0
        and 0.0 <= doc["packet_drop_fraction"] <= 1.0
        and doc["quality_score"] >= 0.0
        and doc.get("dropped_packets", 0) >= 0
    )


class Tally:
    """Units attempted and failed, checked against a reference digest per unit.

    The reference is the pinned digest list when the seed is pinned;
    otherwise the first output seen for each unit becomes its
    reference, so every later pass, part and replay must reproduce it
    exactly.
    """

    def __init__(self, pins: Optional[list[str]] = None):
        self.pinned = pins is not None
        self.reference: dict[int, str] = dict(enumerate(pins or []))
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def _fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def raised(self, n_units: int, exc: BaseException) -> None:
        """A call that should have produced ``n_units`` outputs raised instead."""
        self.attempted += n_units
        self._fail(f"raised {type(exc).__name__}: {exc}", n_units)

    def outputs(self, docs: list, first: int = 0) -> None:
        """Check the outputs of units ``first``, ``first + 1``, … of a pass.

        Anything but an output document (an error message, a failure
        record) is a failed unit.
        """
        self.attempted += len(docs)
        for unit, doc in enumerate(docs, start=first):
            if not isinstance(doc, dict):
                self._fail(f"no output ({type(doc).__name__})")
                continue
            got = digest(doc)
            want = self.reference.get(unit) if self.pinned else self.reference.setdefault(unit, got)
            if not in_range(doc):
                self._fail("output out of range")
            elif want is None:
                self._fail("no pin for this unit")
            elif got != want:
                self._fail("digest mismatch")

    def record_samples(self, n: int, failures: list[str]) -> None:
        """Fold ``n`` externally checked samples and their failure reasons."""
        self.attempted += n
        for reason in failures:
            self._fail(reason)

    @property
    def ok_fraction(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    @property
    def digest_check(self) -> str:
        if not self.pinned:
            return "unchecked"
        return "failed" if self.failed else "passed"

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_fraction": self.failed / self.attempted if self.attempted else 0.0,
            "digest_check": self.digest_check,
            "reasons": self.reasons,
        }
