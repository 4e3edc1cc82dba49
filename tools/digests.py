"""Print one output digest per run, so two commits can be compared by diff.

Runs the m_seq config (one worker) and the m_par2 config (two in-process
workers, a snapshot every 5 increments) for seeds 0-11 and prints, per run,
the sha256 over the names and bytes of every output file except
``timings.csv``, whose wall times differ between runs, or the exception the
run raised.  Byte-identical outputs give identical lines:

    PYTHONPATH=src python tools/digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from grainflow.runner import RunConfig, run

# (name, workers, output_every)
CONFIGS = (("m_seq", 1, 0), ("m_par2", 2, 5))
DOMAIN = 0.3   # mm
GRAINS = 60
H = 0.004      # mm
DT = 10.0      # s
INCREMENTS = 20
SEEDS = range(12)


def digest(n_parts: int, output_every: int, seed: int) -> str:
    """The sha256 of one run's outputs, or the exception it raised."""
    with tempfile.TemporaryDirectory() as out:
        try:
            run(RunConfig(domain=DOMAIN, grains=GRAINS, h=H, dt=DT,
                          increments=INCREMENTS, n_parts=n_parts, seed=seed,
                          out=out, output_every=output_every))
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        sha = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            if name == "timings.csv":
                continue
            sha.update(name.encode())
            with open(os.path.join(out, name), "rb") as f:
                sha.update(f.read())
        return sha.hexdigest()


def main() -> None:
    for name, n_parts, output_every in CONFIGS:
        for seed in SEEDS:
            print(f"{name} seed {seed:2d} {digest(n_parts, output_every, seed)}",
                  flush=True)


if __name__ == "__main__":
    main()
