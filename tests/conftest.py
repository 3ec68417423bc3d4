"""Every hypothesis property draws the same examples on every run: derandomized,
with no example database, so two runs of one commit test the same cases."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
