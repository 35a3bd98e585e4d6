"""simflow: the flow rules of simlint and the effect model they read.

Where the D rules check *syntax* and the C rules the *shape* of the
publish/subscribe graph, the F rules check *flow*: per handler and
service method the effect extractor derives field-level read/write
effect sets, publish sites and RNG draw sites from the AST, closes them
over the call graph, and the rules combine them with the phase-ordered
bus graph to find ordering hazards that no per-line rule can see:

* **F001** — a later-phase handler writes a field an earlier-phase
  handler of the same event read (cross-phase write-after-read).
* **F002** — a handler transitively publishes an event whose subscribers
  run in an earlier phase than the handler itself.
* **F003** — RNG draws on a path declared draw-free (``# simlint:
  draws=0`` or a draw-neutrality docstring), or draws from a stream
  seeded with a literal constant instead of being derived from the
  cluster root.
* **F004** — closures or bound methods shipped to a process-pool
  fan-out (they capture shared-mutable or unpicklable state).

The rules run under simlint's one front end (``python -m
repro.devtools.simlint`` / ``repro lint``). The static model is validated
against reality by :mod:`repro.devtools.simflow.runtime`: an
:class:`EffectRecorder` intercepts bus dispatch and instruments
handler-owner classes, and the golden-scenario crosscheck test asserts
every *observed* read/write set is a subset of the *extracted* one.
"""

from repro.devtools.simflow.effects import EffectIndex, Effects, build_index
from repro.devtools.simflow.runtime import EffectRecorder, compare_observed_to_static

__all__ = [
    "EffectIndex",
    "EffectRecorder",
    "Effects",
    "build_index",
    "compare_observed_to_static",
]
