"""Experiment drivers: one module per paper table/figure (``fig02`` …
``tab05``; Figure 15 lives in ``fig14``), the ablations, and the
``ext_*`` extensions and gates.

Each module exposes ``run(seed=3, quick=True, jobs=1) -> dict``, the
paper's claims about that result as ``shape(result)``, and ends with
its :func:`repro.experiments.registry.register` row; the registry
discovers the modules, ``python -m repro list`` prints them.
"""
