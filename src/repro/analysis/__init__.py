"""Analysis helpers: comparisons, ASCII rendering, fragmentation, stats."""

from .ascii_plot import ascii_bars, ascii_table, grouped_bars
from .comparison import ComparisonResult, compare_schedulers
from .stats import MetricStats, bootstrap_ci, compare_over_seeds, stats_table
from .placement_map import box_row, occupancy_table, placement_map, rack_row, shade
from .fragmentation import (
    StrandingReport,
    fragmentation_summary,
    largest_placeable,
    rack_balance,
    rack_utilization,
    stranding_report,
)

__all__ = [
    "ComparisonResult",
    "StrandingReport",
    "ascii_bars",
    "ascii_table",
    "compare_schedulers",
    "fragmentation_summary",
    "grouped_bars",
    "largest_placeable",
    "rack_balance",
    "rack_utilization",
    "stranding_report",
    "box_row",
    "occupancy_table",
    "placement_map",
    "rack_row",
    "shade",
    "MetricStats",
    "bootstrap_ci",
    "compare_over_seeds",
    "stats_table",
]
