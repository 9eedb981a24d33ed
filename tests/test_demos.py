"""Each demo runs to the end and prints its closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reconkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# script -> (arguments, the last line it prints)
CLOSING = {
    "01_prism_tour.py": ([], "type 8 -> type 9   label 6"),
    "02_reconstruct_from_matrix.py": (
        [], "node 9: v=6 e=9 tr=75 ham=3 charpoly=+1x^6 -9x^4 -4x^3 +12x^2"),
    "03_decks.py": (
        [], "prism  cards -> +1x^6 -9x^4 -4x^3 +12x^2   (direct: +1x^6 -9x^4 -4x^3 +12x^2)"),
    "04_sweep.py": (["4"], "and no edge-labelled poset admits a nontrivial automorphism"),
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(CLOSING)


@pytest.mark.parametrize("script", sorted(CLOSING))
def test_demo_runs_to_its_closing_line(script):
    args, last_line = CLOSING[script]
    env = dict(os.environ, PYTHONPATH=str(Path(reconkit.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(DEMOS / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].strip() == last_line
