"""Settings shared by every test module.

Hypothesis runs under the `tier1` profile: derandomized, so every run draws
the same examples, with the default example count and deadline and no
example database, so earlier runs do not change a result.
`python -m pytest --hypothesis-profile=default` draws fresh random examples
instead."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
