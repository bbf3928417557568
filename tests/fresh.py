"""Run code in a fresh interpreter that imports this checkout's package.

A new process starts with empty caches, so a time bound measured there
holds for a cold start, and a loop that never ends fails the test by
the timeout instead of hanging the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import algentropy


def fresh_interpreter(code, timeout=120):
    """The finished ``python -c code`` process, output captured as text.

    Raises ``CalledProcessError`` on a nonzero exit status and
    ``TimeoutExpired`` past ``timeout`` seconds.
    """
    paths = [str(Path(algentropy.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout, check=True)


def fresh_run(argv, timeout=60):
    """Exit code, seconds, stdout and stderr of ``cli.run(argv)`` in a fresh
    interpreter, timed around the call alone."""
    code = (
        "import io, sys, time\n"
        "from algentropy.cli import run\n"
        "out = io.StringIO()\n"
        "start = time.perf_counter()\n"
        f"code = run({argv!r}, out, sys.stderr)\n"
        "print(code, time.perf_counter() - start)\n"
        "print(out.getvalue(), end='')\n"
    )
    done = fresh_interpreter(code, timeout)
    status, out = done.stdout.split("\n", 1)
    exit_code, seconds = status.split()
    return int(exit_code), float(seconds), out, done.stderr
