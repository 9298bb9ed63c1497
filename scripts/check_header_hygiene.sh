#!/usr/bin/env bash
# Self-contained-includes check for the installed public API surface.
#
# `cmake --install` ships every header under src/ to include/rlslb/, and
# out-of-tree consumers (find_package(rlslb)) may include any of them first.
# This script compiles each header as its own translation unit, so a header
# that silently leans on a transitive include breaks HERE instead of in a
# consumer build. CI runs it as the header-hygiene job; run it locally with
#
#     scripts/check_header_hygiene.sh [compiler]
#
# (default compiler: $CXX, else c++).
#
# It also guards the layering: the dynamics and everything below them
# (src/{ds,config,sim,core,graph,ext,protocols,dynamic}) may include
# process/process.hpp -- the interface they implement -- but no other
# process/ header, so the registry layer never becomes a dependency of the
# families it builds.
set -u
cd "$(dirname "$0")/.."

CXX_BIN="${1:-${CXX:-c++}}"
status=0
checked=0
tu="$(mktemp /tmp/header_hygiene_XXXXXX.cpp)"
err="$(mktemp /tmp/header_hygiene_err_XXXXXX.txt)"
trap 'rm -f "$tu" "$err"' EXIT

for hdr in $(find src -name '*.hpp' | sort); do
  checked=$((checked + 1))
  # Wrap in a one-line TU: compiling the .hpp directly would trip
  # -W#pragma-once-outside-header style warnings, and consumers include
  # headers exactly like this anyway.
  printf '#include "%s"\n' "${hdr#src/}" > "$tu"
  if ! "$CXX_BIN" -std=c++20 -fsyntax-only -Isrc -Wall -Wextra -Werror \
      "$tu" 2> "$err"; then
    echo "NOT SELF-CONTAINED: $hdr"
    sed 's/^/    /' "$err"
    status=1
  fi
done

# The sweep is a recursive glob, but guard the telemetry layer explicitly:
# src/obs/ headers are included by the scenario context, so a hygiene sweep
# that silently stopped seeing them would pass while the installed API rots.
if ! find src/obs -name '*.hpp' 2>/dev/null | grep -q .; then
  echo "FAIL: no src/obs/ headers in the sweep (telemetry layer moved?)"
  status=1
fi

upward="$(grep -rnE '#include[[:space:]]+"process/' \
  src/ds src/config src/sim src/core src/graph src/ext src/protocols src/dynamic |
  grep -vE '#include[[:space:]]+"process/process\.hpp"')"
if [ -n "$upward" ]; then
  echo "LAYERING: only process/process.hpp may be included below the registry layer:"
  echo "$upward" | sed 's/^/    /'
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "OK: all $checked public headers compile standalone ($CXX_BIN); layering holds"
else
  echo "FAIL: some headers are not self-contained or break the layering (see above)"
fi
exit "$status"
