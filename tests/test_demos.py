"""Each demo prints the same bytes from one change to the next."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout
DIGESTS = {
    "covering_certificates.py": "74015d053fa241f0595df69f42cd063473b5259b67e37e92fd06d73890d94deb",
    "descent_and_reduction.py": "01e341d680e72f7d480e9669d52a25c7c73c92ab645e4876c526a3cc4aabf867",
    "stretch_factors.py": "fa7a63f0cf4feca6ec8fb025323753a17e48fa0e02a4c5f7f919e4d9d522b335",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_the_same_bytes(demo):
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[demo]
