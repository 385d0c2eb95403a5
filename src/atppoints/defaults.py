"""Defaults of the library arguments that the CLI shows in ``--help``.

Kept apart from the modules that use them, and free of numpy, so that
``--help`` does not load the library.
"""

#: Level letters kept by default: tour-level plus Davis Cup and Olympics.
DEFAULT_LEVELS = frozenset({"G", "M", "A", "F", "D", "O"})

#: Golden-section search bracket and tolerance for ``model.fit_alpha``.
DEFAULT_SEARCH_LO = 0.01
DEFAULT_SEARCH_HI = 5.0
DEFAULT_TOL = 1e-6

#: Bin counts of ``report.bin_by_ratio`` and ``report.calibration_curve``.
DEFAULT_RATIO_BINS = 40
DEFAULT_PROB_BINS = 20
