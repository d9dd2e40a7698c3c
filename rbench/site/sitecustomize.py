"""Speed sampling for processes the program starts itself.

Fleet workers are spawned by ``repro`` (``python -m repro.cli worker``),
so the benchmark cannot wrap them. When ``RBENCH_SPEED_DIR`` is set and
this directory is on ``PYTHONPATH``, Python imports this module at
start-up; it runs ``refspeed.Sampler`` for the life of the process and
writes the samples to ``$RBENCH_SPEED_DIR/<pid>.json`` at exit. Without
the variable it does nothing.
"""

import os

if os.environ.get("RBENCH_SPEED_DIR"):
    import atexit
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import refspeed

    _sampler = refspeed.Sampler().start()
    _out = os.path.join(os.environ["RBENCH_SPEED_DIR"], f"{os.getpid()}.json")

    def _write():
        _sampler.stop()
        with open(_out + ".tmp", "w") as fh:
            json.dump(_sampler.report(), fh)
        os.replace(_out + ".tmp", _out)

    atexit.register(_write)
    del sys.path[0]
