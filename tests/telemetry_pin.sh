#!/bin/sh
# Pin one arl_sim command's telemetry stream.
#
#   telemetry_pin.sh GOLDEN ARL_SIM ARGS...
#
# Runs `ARL_SIM ARGS... --telemetry F --quiet`, zeroes the fields that
# depend on the host or the wall clock (pid, wall_ms, mips, eta_s,
# rss_kb, and the final record's byte count, which follows their
# widths), and compares the stream with GOLDEN byte for byte.  With
# ARL_UPDATE_GOLDEN=1 set it rewrites GOLDEN and fails, so the new
# file is reviewed before the test passes again.
set -u
golden=$1
shift
out=$(mktemp)
"$@" --telemetry "$out" --quiet > /dev/null || { rm -f "$out"; exit 1; }
sed -E 's/"(pid|wall_ms|mips|eta_s|rss_kb|bytes)":-?[0-9.]+/"\1":0/g' \
    "$out" > "$out.norm"
rm -f "$out"
if [ -n "${ARL_UPDATE_GOLDEN:-}" ]; then
    mv "$out.norm" "$golden"
    echo "regenerated $golden; rerun without ARL_UPDATE_GOLDEN" >&2
    exit 1
fi
cmp "$out.norm" "$golden"
status=$?
rm -f "$out.norm"
exit $status
