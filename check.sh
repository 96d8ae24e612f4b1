#!/bin/sh
# One-command health check: build everything, run the full test suite,
# then smoke the fault-injection path end to end (a lossy paired
# CircuitStart/slow-start run must complete, not hang).
set -eu

cd "$(dirname "$0")"

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== fault smoke: torsim faults --loss 0.01 =="
dune exec bin/torsim.exe -- faults --loss 0.01 --kib 128

echo "== recovery smoke: torsim recover --crash-at 0.2 =="
dune exec bin/torsim.exe -- recover --crash-at 0.2 --kib 128 --seed 7

echo "== overload smoke: torsim overload (flash crowd vs budgets) =="
dune exec bin/torsim.exe -- overload --sessions 8 --kib 32 --seed 7

echo "== network smoke: torsim network (consensus-scale, small) =="
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7

echo "== churn smoke: torsim churn-scale (moving consensus, small) =="
dune exec bin/torsim.exe -- churn-scale --relays 40 --circuits 200 --lifetimes 2000 --seed 7

echo "== predictive smoke: torsim network --strategy predictive =="
# The receding-horizon backend pinned end to end: a small
# consensus-scale run must complete under the planner alone.
dune exec bin/torsim.exe -- network --strategy predictive --relays 100 --circuits 400 --lifetimes 2000 --seed 7

echo "== shard smoke: --shards 2 --jobs 2 byte-identical to the default =="
# The result is a function of (seed, config), whatever --jobs and
# --shards are.
s1=$(mktemp) && s2=$(mktemp)
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7 > "$s1"
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7 --shards 2 --jobs 2 > "$s2"
diff "$s1" "$s2"
rm -f "$s1" "$s2"

echo "== scheduler smoke: ubench --smoke (wheel vs heap A/B) =="
dune exec bench/ubench.exe -- --smoke --json /dev/null | grep "ubench summary"

echo "== invariant smoke: torsim check --runs 25 --seed 42 (60s budget) =="
# Bounded fuzz: 25 random scenarios under full oracles plus the
# jobs-1-vs-4 differential.  A failure prints a replayable
# "torsim check --replay '<line>'" reproducer.
timeout 60 dune exec bin/torsim.exe -- check --runs 25 --seed 42

echo "OK"
