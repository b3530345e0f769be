#!/bin/sh
# A/B comparison of two builds of the end-to-end benchmark, run from the
# repository root (see `e2e.exe ab --help`):
#
#   sh bench/e2e/ab.sh PARENT_EXE CHANGE_EXE N [--workload W]... [--seed S]
exec sh "$(dirname "$0")/run.sh" ab "$@"
