"""Rule modules; importing this package populates the registry."""

from repro.devtools.simlint.rules import contracts, determinism, unused  # noqa: F401
