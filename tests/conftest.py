from __future__ import annotations

import hashlib

import numpy as np
import pytest

from hybridkit.systems import ObserverParams, catalog


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture(scope="session")
def obs_params():
    return ObserverParams()


@pytest.fixture(scope="session")
def acceptance_arcs():
    """Arcs produced by acceptance runs, re-validated wholesale by the
    semantics-closure criterion.  Each entry is (label, system, arc)."""
    return []


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def assert_same_text(a, b) -> None:
    """Exact equality of two strings or byte strings, possibly megabytes
    long, whose failure reports their lengths, SHA-256 digests and first
    differing line instead of a full diff."""
    if a == b:
        return

    def digest(v):
        return len(v), hashlib.sha256(v.encode() if isinstance(v, str) else v).hexdigest()

    lines_a, lines_b = a.splitlines(), b.splitlines()
    k = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))
    line_a = lines_a[k] if k < len(lines_a) else "<end>"
    line_b = lines_b[k] if k < len(lines_b) else "<end>"
    raise AssertionError(f"texts differ: (length, sha256) {digest(a)} != {digest(b)}; "
                         f"first differing line {k + 1}: {line_a!r} != {line_b!r}")
