"""Entry point: ``python3 -m benchmarks.e2e`` from the repo root."""

import time

# Taken before anything of the system under test is imported: ``setup_s``
# counts the imports.
_STARTED = time.perf_counter()

import sys  # noqa: E402

from . import spec  # noqa: E402

# The checkout is not installed; the package under test lives in src/.
sys.path.insert(0, str(spec.REPO_ROOT / "src"))

from .cli import main  # noqa: E402

sys.exit(main(_STARTED))
