"""``python -m repro.harness`` — the experiment-engine CLI."""

import gc
import sys

from repro.harness.cli import main

if __name__ == "__main__":
    try:
        main()
    finally:
        if "numpy" in sys.modules:
            gc.freeze()  # as repro/explore/__main__.py does, and why
