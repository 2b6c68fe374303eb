"""Shared test settings: hypothesis seeds its draws from each test's own
hash (derandomize=True, which also turns off the example database), so
every run of the suite draws the same examples and reaches the same code
paths. A path only random draws reach is then either covered on every run
or on none."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
