#!/usr/bin/env python3
"""Regenerate the benchmark's frozen correctness digests.

Run from the repository root::

    python3 perfbench/regen_digests.py

Writes ``perfbench/digests/mcmm_reference.json`` (reference-engine
endpoint slacks of the ``mcmm_signoff`` design in all 9 views) and
``perfbench/digests/campaign_rows.json`` (store rows of all 288
``demo_spec()`` configs, from which ``campaign_wave`` samples). Takes
about two minutes. Regenerate only for a change that is meant to alter
timing answers, and say so in that change.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mcmm
    import wave

    mcmm.regenerate()
    print(f"wrote {mcmm.DIGEST}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wave.regenerate(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {wave.DIGEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
