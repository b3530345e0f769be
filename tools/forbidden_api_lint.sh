#!/bin/sh
# Forbidden-API lint, run from the repository root (CI runs it on every
# push; `sh tools/forbidden_api_lint.sh` locally).
#
# Rules:
#
#   unix-select   Unix.select anywhere outside lib/netd/evloop*.
#                 select(2) cannot take a descriptor numbered 1024
#                 (FD_SETSIZE) or more, and a process that holds that
#                 many files hands even its first socket such a number;
#                 lib/netd/evloop is the poll-backed wrapper that exists
#                 so nothing else has to care.
#
#   lib-print     Printf.printf / print_endline / print_string /
#                 print_newline / Printf.eprintf / prerr_endline inside
#                 lib/.  Libraries must not write to the process's
#                 stdout/stderr behind the caller's back: observability
#                 goes through Dce_obs (metrics, traces) or a
#                 caller-supplied Format formatter.
#
#   lib-exit      exit / Stdlib.exit inside lib/.  Only executables may
#                 decide the process's fate; a library error is a result
#                 or an exception.
#
#   journal-bypass  Persist.{record,maybe_checkpoint,checkpoint,compact}
#                 or Controller.{catch_up,apply_delta,rejoin} in lib/ or
#                 bin/, outside lib/core and lib/store.  The journal
#                 rules (journal before broadcast, record after receive
#                 accepts, checkpoint after a state transfer, never
#                 compact past the durable cut) are written once, in
#                 Dce_store.Replica; a daemon, editor or the model
#                 checker calling these itself is a second copy of them.
#                 Comments count: point them at Replica.  Tests and
#                 bench/ are exempt — they drive the layers directly.
#
#   obj-magic     Obj.magic in lib/ or bin/.  A cast turns a type error
#                 the compiler would report into memory corruption at
#                 run time.  Where one representation must serve several
#                 element types, say so in the types instead, as the
#                 GADT behind a tombstone document's runs (Tdoc.run)
#                 does for packed character runs and element arrays.
#
# Allowlist: tools/forbidden_api_allowlist.txt, one "<rule> <path>" per
# line ('#' comments).  An entry exempts the whole file for that rule —
# keep entries rare and justified inline.

set -u
cd "$(dirname "$0")/.."

allowlist=tools/forbidden_api_allowlist.txt
fail=0

allowed() { # rule file
  grep -qE "^$1[[:space:]]+$2\$" "$allowlist" 2>/dev/null
}

report() { # rule matches
  rule=$1
  shift
  [ -n "$*" ] || return 0
  for line in "$@"; do
    file=${line%%:*}
    if ! allowed "$rule" "$file"; then
      echo "forbidden-api [$rule]: $line" >&2
      fail=1
    fi
  done
}

# POSIX sh word-splits on newlines only inside `set --`; collect grep
# output one match per positional parameter.
collect() { # sets $@ from stdin lines
  set --
  while IFS= read -r l; do set -- "$@" "$l"; done
  printf '%s\n' "$@"
}

old_ifs=$IFS
IFS='
'

set -- $(grep -rn 'Unix\.select' lib bin test bench examples 2>/dev/null \
  | grep -v '^lib/netd/evloop') || true
report unix-select "$@"

set -- $(grep -rnE '(^|[^.[:alnum:]_])(Printf\.(printf|eprintf)|print_endline|print_string|print_newline|prerr_endline)' lib 2>/dev/null) || true
report lib-print "$@"

set -- $(grep -rnE '(^|[^.[:alnum:]_])(Stdlib\.)?exit [0-9]' lib 2>/dev/null) || true
report lib-exit "$@"

set -- $(grep -rnE '(Persist\.(record|maybe_checkpoint|checkpoint|compact)|Controller\.(catch_up|apply_delta|rejoin))([^[:alnum:]_]|$)' lib bin 2>/dev/null \
  | grep -vE '^lib/(core|store)/') || true
report journal-bypass "$@"

set -- $(grep -rn 'Obj\.magic' lib bin 2>/dev/null) || true
report obj-magic "$@"

IFS=$old_ifs

if [ "$fail" -ne 0 ]; then
  echo "forbidden-api lint failed; add a justified entry to $allowlist only if the use is genuinely necessary" >&2
  exit 1
fi
echo "forbidden-api lint clean"
