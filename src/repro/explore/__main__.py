import gc
import sys

from repro.explore.cli import main

try:
    main()
finally:
    # The process ends here.  Where numpy loaded, freeze the heap: the
    # interpreter's shutdown collections then skip numpy's and the
    # simulator's objects instead of freeing them one at a time.  A run
    # without numpy saves little, and a frozen heap makes shutdown's own
    # allocations take fresh pages (about 0.1 MB of peak RSS).
    if "numpy" in sys.modules:
        gc.freeze()
