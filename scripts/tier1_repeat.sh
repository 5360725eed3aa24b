#!/usr/bin/env bash
# Run the tier-1 suite N times (default 20) and say how many runs were
# red and which tests failed in them; exits 1 if any was.
#   scripts/tier1_repeat.sh [N] [LOG_DIR]
set -u
rounds="${1:-20}"
logs="${2:-$(mktemp -d)}"
mkdir -p "$logs"
red=0
for round in $(seq 1 "$rounds"); do
  if ! PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q \
      -p no:cacheprovider > "$logs/round-$round.log" 2>&1; then
    red=$((red + 1))
    grep -E '^(FAILED|ERROR) ' "$logs/round-$round.log" \
      | sed "s/^/round $round: /"
  fi
done
echo "tier-1 red runs: $red of $rounds (logs in $logs)"
test "$red" -eq 0
