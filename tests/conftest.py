"""Shared test settings.

Every Hypothesis test runs under one profile: no deadline (timings on a
shared host vary), a derandomized example stream so that tier-1 is
reproducible, and no example database. Decorators set only `max_examples`.
Hypothesis also caches constants it reads from the source; that cache goes
to a temporary directory removed at exit, so a test run leaves no
`.hypothesis/` directory behind.

pyproject's `pythonpath` puts `src/` on this process's import path; the
same directory is prepended to PYTHONPATH so that the subprocesses a test
starts (`python -m polypart.cli ...`) import this checkout as well, and
`error::RuntimeWarning` is appended to PYTHONWARNINGS so that a numpy
overflow fails such a subprocess as pyproject's filter fails an in-process
test. The tests import their reference implementations as `oracles` from
this directory, which goes on the import path here so that any pytest import
mode finds it.
"""

import os
import sys
import tempfile
from pathlib import Path

from hypothesis import configuration, settings

settings.register_profile("polypart", deadline=None, derandomize=True, database=None)
settings.load_profile("polypart")

_storage = tempfile.TemporaryDirectory(prefix="polypart-hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)
