#!/usr/bin/env bash
# usage: stable-metrics.sh <metrics.prom>
#
# Prints a `--metrics-out` exposition without its wall-clock rows: the
# planning-time histogram `schemble_sched_plan_seconds*` and the counter
# `schemble_sched_plan_wall_seconds_total`, each with its HELP/TYPE lines.
# Everything else is the run's own deterministic count, the scheduler's
# `schemble_sched_plan_work_units_total` included, so two runs of one seeded
# command line `cmp` equal after this filter.
set -euo pipefail
grep -Ev '^(# (HELP|TYPE) )?schemble_sched_plan_(seconds|wall_seconds_total)([_{ ]|$)' "$1"
