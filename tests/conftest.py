"""Hypothesis profiles. The default profile is hypothesis's own; ``ci`` runs
about 2000 examples per property, for a step that runs only the encoding
properties (``pytest tests/test_lattice.py -k canon --hypothesis-profile=ci``).
Its deadline is off: the step checks outputs, not per-example time."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
