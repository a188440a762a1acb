"""Settings for the whole test session.

Hypothesis runs derandomized, with no example database: each property
draws the same examples on every run and every machine, so a failure seen
once fails again when the suite is rerun.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
