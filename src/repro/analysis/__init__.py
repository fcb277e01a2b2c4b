"""Analysis layer: datasets, CDFs, statistics and per-figure reproductions.

Every table and figure of the paper's evaluation has a module under
:mod:`repro.analysis.figures` returning a structured result with a
``render_text()`` method, so the whole evaluation can be regenerated as text
tables / data series.  Each module computes its result from reduced inputs
(``compute_from_*``, what :func:`repro.analysis.report.build_report` feeds
from a :class:`repro.scanners.streaming.ReducedCampaignResults`); a
``compute`` over per-domain inputs (deployments, observations) folds them
with the same accumulator a shard worker runs and then calls its
``compute_from_*``.
"""

from .cdf import EmpiricalCdf
from .dataset import Table, Column
from .stats import median, mean, percentile, share

__all__ = ["EmpiricalCdf", "Table", "Column", "median", "mean", "percentile", "share"]
