"""``import rkstieltjes`` loads the library only: the measurement harness,
the CLI, the quadrature behind criterion 11 and the scipy modules that
serve only file ingestion and the Toeplitz oracle stay unloaded until
asked for by name."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HARNESS = ("rkstieltjes.acceptance", "rkstieltjes.experiments",
           "rkstieltjes.cli", "scipy.integrate", "scipy.io", "scipy.sparse",
           "scipy.fft")


def test_package_root_does_not_load_the_harness():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = ("import rkstieltjes, sys; "
             f"print(' '.join(m for m in {HARNESS!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
