"""The process entry of `python -m ewlgames` and of the `ewlgames` console script."""
import gc
import sys

from .cli import main


def entry() -> int:
    """`cli.main()` on `sys.argv`, then the collector frozen; returns the exit status.

    At exit nearly every object the interpreter still tracks belongs to the
    numpy and package module graph, and shutdown collects it more than once
    (about 13 ms of a run on 2 vCPUs). Freezing moves every live object out
    of the collector's reach, so those collections find nothing to walk.
    The collector stays enabled during the run, and atexit handlers, stream
    flushes and module teardown still run. In-process callers of `cli.main`
    keep normal collection.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
