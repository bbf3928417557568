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
