"""The certify path's bits, pinned through tools/grid_sweep.py.

Each digest is the sha256 of one sweep_pair JSON line (every float as
float.hex()), recorded before the alphabet parameters became constants.  A
change that moves any LP or MRRW bit at these pairs fails here, before a
benchmark run could flip a large-n certificate.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "grid_sweep.py"

# (n, d): (LP status, sha256 of the JSON line); every pair has an MRRW certificate
PINNED = {
    (10, 3): ("optimal", "514d2e58d895808fd15c713ce847a24b9912b84e5e7fc45cf5624a19870b3b1e"),
    # its final basis has a reduced cost below -1e-9 when re-solved, so this
    # "optimal" answer awaits an exact proof (ROADMAP item 16)
    (28, 3): ("optimal", "2f9581f2fcb07197b64b17d44049ecfcaff059aba155e087cf50e0c5c0ed379b"),
    (37, 4): ("infeasible", "39f80bdc9b7998b8170f015b8e8eccc2e7473f0a139531428fe95111f5567980"),
    (31, 4): ("numeric-failure", "4da6d981bf36dcbe10c54aa625f448b75888f93ac978d66ba45e2ec4590ead19"),
    (45, 14): ("numeric-failure", "e8b395f9221a8790db46fa51b26c157f73c0078f1fafef7705abc866a43595d0"),
    (59, 30): ("numeric-failure", "eea45fdec9a06260a44be58dbe54f936fa59f086b5467c5f5d7d458062045311"),
    (63, 32): ("numeric-failure", "ce8b7a584190a112b49c8a8d37d1ed7b78ded82a32d2cf19823d3cfa5a359953"),
    (64, 20): ("numeric-failure", "b4e0b44fa278b93c99bc0ddd670eccb8a488e20c42bfb46a09b21051e25e225f"),
}


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("grid_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pair", sorted(PINNED))
def test_sweep_line_is_bit_identical(sweep, pair):
    record = sweep.sweep_pair(*pair)
    status, digest = PINNED[pair]
    assert record["status"] == status
    assert record["mrrw"] is not None
    line = json.dumps(record) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == digest
