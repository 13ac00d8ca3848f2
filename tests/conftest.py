"""Hypothesis profiles. The default profile is hypothesis's own; ``ci`` runs
about 2000 examples per property, for the steps that run only the encoding
properties (``pytest tests/test_lattice.py -k canon --hypothesis-profile=ci``),
the scheduler's reference draws (``pytest tests/test_simnet.py -k
test_draw_matches_ --hypothesis-profile=ci``), the keychain oracle against
its uncached reference (``pytest tests/test_fscrypto.py -k
test_keychain_matches_uncached_reference --hypothesis-profile=ci``) and the
returned certificates' JSON round trip (``pytest tests/test_dbla.py -k
test_certificate_json_round_trips --hypothesis-profile=ci``), and the planted
values and certificate trees (``pytest tests/test_harness.py -k
test_a_planted_certificate_tree --hypothesis-profile=ci``), whose every
example runs a scenario: about 2000 examples under ``ci`` and 100 by default.
The same profile runs validate's copy against the JSON round trip over
planted trees (``pytest tests/test_harness.py -k test_validate_copies_
--hypothesis-profile=ci``).
The profile's deadline is off: the steps check outputs, not per-example time."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
