#!/usr/bin/env bash
# Fails when a runtime metric exists in the source but is missing from the
# README "Metrics reference" table, or when a row of that table names a
# metric nothing registers any more. Two sources of truth:
#
#   1. every literal counter("...")/gauge("...")/histogram("...")
#      registration under src/ and tools/;
#   2. the serve daemon's publish_metrics_locked body, which publishes the
#      snapshot under literal names handed to a local helper rather than
#      registered directly.
#
# Trace span names (serve.hello, serve.frame, ...) are deliberately NOT
# collected: they are Tracer event names, not metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

names=$(
  {
    grep -rhoE '(counter|gauge|histogram)\("[a-z0-9._-]+"' src tools |
      sed -E 's/.*\("([^"]+)"/\1/'
    awk '/void ServeServer::publish_metrics_locked/,/^}/' \
        src/serve/server.cpp |
      grep -hoE '"[a-z0-9_]+\.[a-z0-9._-]+"' | tr -d '"'
  } | sort -u
)

if [ -z "$names" ]; then
  echo "check_metrics_docs: extracted no metric names — pattern rot?" >&2
  exit 1
fi

# The first backticked name of each row of the table, which runs from the
# "### Metrics reference" heading to the next heading.
rows=$(
  awk '/^### Metrics reference/ { on = 1; next } on && /^#/ { exit }
       on && /^\| `/' README.md |
    sed -E 's/^\| `([^`]+)`.*/\1/' | sort -u
)

missing=0
for n in $names; do
  if ! grep -q "\`$n\`" README.md; then
    echo "README.md metrics table is missing: $n" >&2
    missing=1
  fi
done
for n in $rows; do
  if ! grep -qxF "$n" <<<"$names"; then
    echo "README.md metrics table documents an unregistered metric: $n" >&2
    missing=1
  fi
done

count=$(echo "$names" | wc -l)
if [ "$missing" -ne 0 ]; then
  echo "check_metrics_docs: FAILED (of $count runtime metrics)" >&2
  exit 1
fi
echo "check_metrics_docs: all $count runtime metrics documented, no stale rows"
