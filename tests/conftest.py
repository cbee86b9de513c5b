"""Tier-1 draws the same Hypothesis examples on every run and writes no ``.hypothesis/``.

The profile turns off the example database.  Hypothesis still caches the
constants it reads from local source files, already while collecting, so its
storage directory is a temporary one removed when the run ends.
"""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    _storage = None
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
    _storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    if _storage is not None:
        _storage.cleanup()
