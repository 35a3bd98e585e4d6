"""Developer tooling that keeps the simulation honest at review time.

The runtime half of the correctness story is the cross-layer
:class:`~repro.simulator.invariants.InvariantAuditor`, which catches
violations while they execute. This package holds the static half:
:mod:`repro.devtools.simlint`, one analyzer that checks the source tree
without running it for determinism hazards (wall-clock reads, unseeded
RNG, unordered-set iteration), event-bus contract drift and cross-phase
handler hazards before they can flake a golden-seed trajectory. Its flow
rules, effect extractor and runtime effect crosscheck live in
:mod:`repro.devtools.simflow`.
"""
