#!/usr/bin/env bash
# Replay parity between two commscope builds. Records every workload once
# with OLD_CLI (--scale=small --threads=4), replays each trace with both
# CLIs at --batch=0 and --batch=64 under five configurations, and compares
# with cmp: the --epochs-out file, the --save-matrix file, and the report
# without its timing, memory and output-path lines. The fourth config runs
# the gated GuardedSink path (budgets that never fire) under the recorder.
# The fifth runs the stack commbench's live-features workload runs: the
# pass-through GuardedSink with an armed watchdog and the perf engine
# (degraded where perf_event_open is refused).
# No config uses --checkpoint: a checkpoint forces a kCheckpoint epoch seal,
# and where that seal lands is tied to the checkpoint's event index, so
# builds that define the index differently disagree on --epochs-out while
# their matrices and reports still match.
#
#   ci/replay_parity.sh OLD_CLI NEW_CLI [DIR]
#
# DIR holds the outputs and each trace while it is replayed (the 14 traces
# total about 280 MB; a trace is kept only when one of its replays differs).
# By default DIR is a temporary directory, removed when every comparison
# matches. Exit 0 when all replays are identical; 1 naming each differing
# (app, batch, config); 2 on a usage error.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 OLD_CLI NEW_CLI [DIR]" >&2
  exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
for cli in "$old" "$new"; do
  if [ ! -x "$cli" ]; then
    echo "replay_parity: $cli is not an executable" >&2
    exit 2
  fi
done
if [ $# -eq 3 ]; then
  dir=$3
  mkdir -p "$dir"
  keep=1
else
  dir=$(mktemp -d)
  keep=0
fi

configs=(
  "--epochs=16 --phases=4096 --dvfs"
  "--epoch-every=1000 --epoch-ring=100000 --phases=65536 --dvfs"
  "--epochs=7 --backend=exact"
  "--epoch-every=1000 --epoch-ring=100000 --phases=65536 --mem-budget=1G --event-budget=1000000000000"
  "--epoch-every=1000 --epoch-ring=100000 --phases=65536 --timeout=100 --perf"
)
apps=$("$old" list | awk -F'|' '/^\|/ { gsub(/ /, "", $2); if ($2 != "workload") print $2 }')

# Replays `trace` with `cli` into outputs prefixed `out`; the report keeps
# only lines both builds must print alike.
replay() {
  local cli=$1 trace=$2 batch=$3 config=$4 out=$5
  # shellcheck disable=SC2086  # the config is a word list of flags
  "$cli" replay "$trace" --batch="$batch" $config \
    --epochs-out="$out.epochs" --save-matrix="$out.matrix" >"$out.raw" 2>&1 ||
    echo "exit status $?" >>"$out.raw"
  grep -vE '^profiler memory:|written to |^profiling overhead' "$out.raw" \
    >"$out.report" || true
}

total=0
same=0
failed=()
for app in $apps; do
  trace="$dir/$app.trace"
  if ! "$old" run "$app" --scale=small --threads=4 --save-trace="$trace" \
      >"$dir/$app.record.log" 2>&1; then
    echo "replay_parity: recording $app failed (see $dir/$app.record.log)" >&2
    exit 1
  fi
  differs=0
  for batch in 0 64; do
    for c in "${!configs[@]}"; do
      total=$((total + 1))
      tag="$app.b$batch.c$c"
      replay "$old" "$trace" "$batch" "${configs[$c]}" "$dir/old.$tag"
      replay "$new" "$trace" "$batch" "${configs[$c]}" "$dir/new.$tag"
      ok=1
      for ext in epochs matrix report; do
        cmp -s "$dir/old.$tag.$ext" "$dir/new.$tag.$ext" || ok=0
      done
      if [ "$ok" -eq 1 ]; then
        same=$((same + 1))
      else
        failed+=("$app batch=$batch config='${configs[$c]}'")
        differs=1
      fi
    done
  done
  if [ "$differs" -eq 0 ]; then rm -f "$trace"; fi
done

echo "replay_parity: $same/$total identical"
if [ "${#failed[@]}" -ne 0 ]; then
  printf 'differs: %s\n' "${failed[@]}"
  echo "replay_parity: outputs kept in $dir"
  exit 1
fi
if [ "$keep" -eq 0 ]; then rm -rf "$dir"; fi
