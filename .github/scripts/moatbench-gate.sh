#!/usr/bin/env bash
# Same-runner host-time gate. Runs the benchmark that BENCHMARK.json
# declares on a checkout of the parent commit and on a checkout of the
# change, in alternating pairs on this one machine, and compares them.
#
# usage: .github/scripts/moatbench-gate.sh <parent-checkout> <change-checkout>
#
# The command, run_seconds, the workloads and each end-to-end metric's
# direction and bound come from BENCHMARK.json. Every run is untraced
# (--trace 0) and takes its pair index as the seed. Each side builds
# into its own CARGO_TARGET_DIR (<checkout>/moatbench/target). Prints
# the median and interquartile range of both sides for every metric and
# workload. Needs bash, jq, diff and cargo.
#
# Verdict, on the last line and in the exit status:
#   FAIL (1)        a metric's median on the change is worse than the
#                   parent's by more than its bound, the change fails a
#                   larger share of operations, a change run reports
#                   correct=false, or a metric is missing from a result;
#   unresolved (0)  no failure, but some metric spreads wider than its
#                   bound (IQR over median, on either side), so the runs
#                   show no regression but cannot show its absence
#                   either; such metrics are marked on their lines. A
#                   metric whose every change run reads better than every
#                   parent run is resolved whatever its spread;
#   pass (0)        otherwise.
# When BENCHMARK.json or moatbench/ differ between the two checkouts,
# the two sides measure different things; the gate prints that it is
# skipped and exits 0.
set -euo pipefail

# Pairs per workload: three is the fewest whose median drops one outlier
# run on each side, and keeps the gate to 2 x 3 runs of run_seconds (plus
# setup) per workload.
PAIRS=3

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-checkout> <change-checkout>" >&2
  exit 2
fi
declare -A root
root[parent]=$(cd "$1" && pwd)
root[change]=$(cd "$2" && pwd)

for path in BENCHMARK.json moatbench; do
  if ! diff -rq --exclude=target "${root[parent]}/$path" "${root[change]}/$path" >/dev/null 2>&1; then
    echo "moatbench-gate: skipped: $path differs between parent and change, so the two" \
      "sides would not run the same benchmark"
    exit 0
  fi
done

spec="${root[change]}/BENCHMARK.json"
mapfile -t cmd < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run <side> <workload> <seed>: one run; appends its result object,
# tagged with side, workload, seed and digest, to $work/results.
run() {
  local side=$1 workload=$2 seed=$3 out
  local err="$work/$side-$workload-$seed.err"
  if ! out=$(cd "${root[$side]}" &&
    CARGO_TARGET_DIR="${root[$side]}/moatbench/target" "${cmd[@]}" \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>"$err"); then
    echo "moatbench-gate: $side run of $workload (seed $seed) failed:" >&2
    tail -n 20 "$err" >&2
    exit 1
  fi
  tail -n 1 <<<"$out" | jq -c --arg side "$side" --arg workload "$workload" \
    --argjson seed "$seed" --arg digest "$(tail -n 2 <<<"$out" | head -n 1)" \
    '{side: $side, workload: $workload, seed: $seed, digest: $digest, result: .}' \
    >>"$work/results"
}

for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$PAIRS"); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      run "$side" "$workload" "$pair"
    done
  done
done

# Each line carries a status: "ok", "FAIL" or "unresolved".
jq -n -r --slurpfile spec "$spec" --slurpfile runs "$work/results" '
  def quantile($q): sort | ((length - 1) * $q) as $pos | ($pos | floor) as $lo
    | .[$lo] + (.[($pos | ceil)] - .[$lo]) * ($pos - $lo);
  def iqr: quantile(0.75) - quantile(0.25);
  def spread: (quantile(0.5) | fabs) as $m | iqr as $i
    | if $m != 0 then $i / $m elif $i == 0 then 0 else infinite end;
  def sig: if isinfinite or isnan then "inf" elif . == 0 then "0" else
    (fabs | log10 | floor) as $e | pow(10; 3 - $e) as $f | (. * $f | round) / $f | tostring end;
  def side($s; $w): [$runs[] | select(.side == $s and .workload == $w)];
  def mark: if .status == "ok" then . else .line += "  \(.status)" end;
  [ $spec[0].workloads[].name as $w
    | (side("parent"; $w)) as $p | (side("change"; $w)) as $c
    | ( $spec[0].end_to_end[] as $m
        | [$p[] | .result.metrics[$m.name].value] as $pv
        | [$c[] | .result.metrics[$m.name].value] as $cv
        | if ($pv + $cv | any(. == null)) then
            {status: "FAIL", line: "\($w) \($m.name): missing from a result"}
          else
            ($pv | quantile(0.5)) as $pm | ($cv | quantile(0.5)) as $cm
            | (if $m.better == "lower" then $cm - $pm else $pm - $cm end) as $worse
            | (if $pm != 0 then $worse / ($pm | fabs)
               elif $worse > 0 then infinite else 0 end) as $rel
            | (if $m.better == "lower" then ($cv | max) < ($pv | min)
               else ($cv | min) > ($pv | max) end) as $all_better
            | ([($pv | spread), ($cv | spread)] | max) as $spread
            | {status: (if $rel > $m.bound then "FAIL"
                        elif $spread > $m.bound and ($all_better | not) then "unresolved"
                        else "ok" end),
               line: ("\($w) \($m.name) [\($m.unit), \($m.better) is better]: "
                + "parent \($pm | sig) (IQR \($pv | iqr | sig)), "
                + "change \($cm | sig) (IQR \($cv | iqr | sig)), "
                + "worse by \($rel * 100 | sig)%, spread \($spread * 100 | sig)%, "
                + "vs bound \($m.bound * 100)%")}
          end ),
      ( ([$p[].result.failed] | add) / ([$p[].result.attempted] | add) ) as $pf
      | ( ([$c[].result.failed] | add) / ([$c[].result.attempted] | add) ) as $cf
      | {status: (if $cf > $pf then "FAIL" else "ok" end),
         line: "\($w) failed share: parent \($pf | sig), change \($cf | sig)"},
      ( [$c[] | select(.result.correct != true) | .seed] as $bad
        | {status: (if $bad == [] then "ok" else "FAIL" end),
           line: ("\($w) correct: parent \([$p[] | select(.result.correct == true)] | length)"
             + "/\($p | length), change \([$c[] | select(.result.correct == true)] | length)"
             + "/\($c | length)"
             + (if $bad == [] then "" else " (change seeds \($bad | map(tostring) | join(", ")) incorrect)" end))} ),
      {status: "ok", line: ("\($w) digests: "
          + (if ([$p[].digest] | sort) == ([$c[].digest] | sort) then "identical"
             else "differ (results changed; informational)" end))}
  ]
  | (.[] | mark | .line),
    ("moatbench-gate: " + (if any(.status == "FAIL") then "FAIL"
       elif any(.status == "unresolved") then "unresolved" else "pass" end))
' | tee "$work/verdict"
if tail -n 1 "$work/verdict" | grep -q 'FAIL$'; then exit 1; fi
