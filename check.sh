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
# The crash preset of the session world: every arm must survive the
# crash and complete its transfer.
out=$(dune exec bin/torsim.exe -- recover --crash-at 0.2 --kib 128 --seed 7)
printf '%s\n' "$out"
for arm in circuitstart slowstart predictive; do
  printf '%s\n' "$out" | grep -q "^$arm  *completed " \
    || { echo "recovery smoke failed: $arm did not complete" >&2; exit 1; }
done

echo "== overload smoke: torsim overload (flash crowd vs budgets) =="
dune exec bin/torsim.exe -- overload --sessions 8 --kib 32 --seed 7

echo "== star smoke: torsim cdf, one run per transport (packet-level, small) =="
# The paper's packet-level star (Figure 1c) end to end: every transport
# must complete all of its circuits.
for transport in cs ss pr sendme; do
  out=$(dune exec bin/torsim.exe -- cdf --circuits 10 --relays 12 --kib 64 --seed 7 --transport "$transport")
  last=$(printf '%s\n' "$out" | tail -n 1)
  echo "$transport: $last"
  case "$last" in "completed 10/10 "*) ;; *) echo "star smoke failed" >&2; exit 1 ;; esac
done

echo "== examples smoke: multi_stream (three streams over one circuit) =="
# The only caller of Transfer.deploy_streams: each of its three streams
# must report its completion.
out=$(dune exec examples/multi_stream.exe)
printf '%s\n' "$out"
for id in 1 2 3; do
  printf '%s\n' "$out" | grep -q "^stream $id (.*): done after " \
    || { echo "multi_stream smoke failed: stream $id did not finish" >&2; exit 1; }
done

echo "== network smoke: torsim network (consensus-scale, small) =="
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7

echo "== churn smoke: torsim churn-scale (moving consensus, small) =="
dune exec bin/torsim.exe -- churn-scale --relays 40 --circuits 200 --lifetimes 2000 --seed 7

echo "== predictive smoke: torsim network --strategy predictive =="
# The receding-horizon backend pinned end to end: a small
# consensus-scale run must complete under the planner alone.
dune exec bin/torsim.exe -- network --strategy predictive --relays 100 --circuits 400 --lifetimes 2000 --seed 7

echo "== shard smoke: --shards 2 and 4 (--jobs 2) byte-identical to the default =="
# The result is a function of (seed, config), whatever --jobs and
# --shards are.  At four shards every shard domain reads the shared
# relay draw tables at once.
s1=$(mktemp) && s2=$(mktemp) && s4=$(mktemp)
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7 > "$s1"
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7 --shards 2 --jobs 2 > "$s2"
dune exec bin/torsim.exe -- network --relays 100 --circuits 400 --lifetimes 2000 --seed 7 --shards 4 --jobs 2 > "$s4"
diff "$s1" "$s2"
diff "$s1" "$s4"
rm -f "$s1" "$s2" "$s4"

echo "== churn shard smoke: churn-scale --shards 2 and 4 (--jobs 2) byte-identical to the default =="
# The same guarantee with churn on: kill sweeps, resumes and epoch
# refreshes at the barriers may not depend on the partition either.
c1=$(mktemp) && c2=$(mktemp) && c4=$(mktemp)
dune exec bin/torsim.exe -- churn-scale --relays 40 --circuits 200 --lifetimes 2000 --seed 7 > "$c1"
dune exec bin/torsim.exe -- churn-scale --relays 40 --circuits 200 --lifetimes 2000 --seed 7 --shards 2 --jobs 2 > "$c2"
dune exec bin/torsim.exe -- churn-scale --relays 40 --circuits 200 --lifetimes 2000 --seed 7 --shards 4 --jobs 2 > "$c4"
cmp "$c1" "$c2"
cmp "$c1" "$c4"
rm -f "$c1" "$c2" "$c4"

echo "== scheduler smoke: ubench --smoke (wheel vs heap A/B) =="
dune exec bench/ubench.exe -- --smoke --json /dev/null | grep "ubench summary"

echo "== invariant smoke: torsim check --runs 25 --seed 42 (60s budget) =="
# Bounded fuzz: 25 random scenarios under full oracles plus the
# jobs-1-vs-4 differential.  A failure prints a replayable
# "torsim check --replay '<line>'" reproducer.
timeout 60 dune exec bin/torsim.exe -- check --runs 25 --seed 42

echo "== churn invariant smoke: torsim check --kind churn --runs 100 --seed 42 =="
# 100 churn scenarios (about a second) under the churn oracles: a kill
# pass that misses a circuit through a departed relay shows up as a
# round through a down relay or as departure residue.
timeout 60 dune exec bin/torsim.exe -- check --kind churn --runs 100 --seed 42

echo "== export report: lib/**/*.mli vals by outside use (report only) =="
# A name-based scan: a val whose name no other OCaml file mentions has
# no user; one mentioned only under test/ is used by tests alone.  A
# grep cannot see through [open], a record field or a shadowing local
# of the same name, so the lists are leads to read, not a gate.
unused="" test_only=""
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$name" \
              lib bin bench examples test perfbench \
            | grep -v -x -e "$base.ml" -e "$base.mli" || true)
    if [ -z "$users" ]; then
      unused="$unused $mli:$name"
    elif [ -z "$(printf '%s\n' "$users" | grep -v '^test/' || true)" ]; then
      test_only="$test_only $mli:$name"
    fi
  done
done
echo "no user outside the defining module ($(echo $unused | wc -w)):"
for v in $unused; do echo "  $v"; done
echo "used only under test/ ($(echo $test_only | wc -w)):"
for v in $test_only; do echo "  $v"; done

echo "OK"
