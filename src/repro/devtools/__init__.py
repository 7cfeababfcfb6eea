"""Developer tooling — the static invariant linter and its runtime
complement.

* :mod:`repro.devtools.lint` — ``reprolint`` driver
  (``python -m repro.devtools.lint`` / ``repro lint``): one pass over
  the whole rule catalogue, suppressions, baseline, reporters.
* :mod:`repro.devtools.rules` — the RPL rule catalog and the syntactic
  RPL001 and RPL003–005 checkers.
* :mod:`repro.devtools.index` — the node index: each scope's own nodes
  and their parents, built once per run for the checkers below.
* :mod:`repro.devtools.dataflow` — abstract interpretation: per-function
  CFGs (:mod:`~repro.devtools.cfg`) analyzed to fixpoint over a product
  fact lattice (:mod:`~repro.devtools.lattice`) for RPL002
  immutability, the RPL101–104 unit/dtype/order rules and
  interprocedural RPL001 via call-graph summaries.
* :mod:`repro.devtools.effects` / :mod:`~repro.devtools.effect_rules` —
  effect summaries and the RPL201–213 concurrency & resource-safety
  rules.
* :mod:`repro.devtools.sarif` — SARIF 2.1.0 reporter for code-scanning
  upload (``--format sarif``).
* :mod:`repro.devtools.sanitize` — runtime sanitizer that asserts
  store arrays are frozen and hash-guards dataset fingerprints across
  analysis calls, validating the static rules against ground truth.

Nothing here is imported by the library itself.  The linter is not
standalone: ``import repro.devtools`` imports ``repro`` (and numpy),
and the rules read the FOT schema and dataset surface from the library.
"""
