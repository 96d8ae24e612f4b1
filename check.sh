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

echo "== determinism registry: an entry for every run_many of lib/workload =="
# The registry in test/determinism.ml is the one statement that a result
# is a function of (seed, config), whatever --jobs and --shards are.  A
# module of lib/workload whose .mli exports run_many must have an entry
# that runs it, so a new engine cannot skip the statement.  The registry
# is read from its "let registry =" line to the next blank line.
registry=$(awk '/^let registry =/ { r = 1 } r && /^$/ { exit } r' test/determinism.ml)
missing=0
for mli in lib/workload/*.mli; do
  grep -q '^val run_many ' "$mli" || continue
  m=$(basename "$mli" .mli)
  M=$(printf '%s' "$m" | cut -c1 | tr a-z A-Z)$(printf '%s' "$m" | cut -c2-)
  if ! printf '%s\n' "$registry" | grep -q "Workload\.$M\.run_many"; then
    echo "determinism registry: no entry runs Workload.$M.run_many" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1

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

echo "== examples smoke: multi_stream (three streams over one circuit) =="
# The only caller of Transfer.deploy_streams: each of its three streams
# must report its completion.
out=$(dune exec examples/multi_stream.exe)
printf '%s\n' "$out"
for id in 1 2 3; do
  printf '%s\n' "$out" | grep -q "^stream $id (.*): done after " \
    || { echo "multi_stream smoke failed: stream $id did not finish" >&2; exit 1; }
done

echo "== predictive smoke: torsim network --strategy predictive =="
# The receding-horizon backend pinned end to end: a small
# consensus-scale run must complete under the planner alone.
dune exec bin/torsim.exe -- network --strategy predictive --relays 100 --circuits 400 --lifetimes 2000 --seed 7

echo "== perf gate: bench/trajectory.exe over the committed BENCH_*.json =="
# The blessed floors of bench/perf_floors.txt hold on the reports in
# the tree, at the gate's default tolerance.
dune exec bench/trajectory.exe

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

echo "== export report: lib/**/*.mli vals by qualified outside use =="
# A val [v] of [lib/<l>/<m>.mli] (module M) counts as used by another
# .ml file that writes [M.v] ([Sub.v] for a val of submodule Sub, [A.v]
# after [module A = M]), or a bare [v] after opening M ([open M],
# [let open M in], [M.( ... )]).  Comments and string contents are
# blanked first.  A module packed as [(module M)] uses the vals that a
# module type declares; those are listed apart, by name.  Vals inside a
# [module type] are not exports of their own.  Users are looked for in
# lib, bin, bench, examples and perfbench; test/ is counted apart.  A
# test-only export must say why in its doc paragraph: a test hook, a
# test reference or the ROADMAP item that replaces it (a val of a
# [Private] submodule is a test hook by its name).  The script fails
# when a val has no user, or is used only under test/ without saying
# why; the other two lists are information.
src=$(mktemp -d)
for f in $(find lib bin bench examples perfbench test -name '*.ml' | sort); do
  mkdir -p "$src/${f%/*}"
  awk '{
    out = ""; n = length($0)
    for (i = 1; i <= n; i++) {
      c = substr($0, i, 1); c2 = substr($0, i, 2)
      if (str) { if (c == "\\") i++; else if (c == "\"") { str = 0; out = out c }; continue }
      if (c2 == "(*") { depth++; i++; continue }
      if (depth && c2 == "*)") { depth--; i++; continue }
      if (depth) continue
      if (c == "\"") str = 1
      out = out c
    }
    print out
  }' "$f" > "$src/$f"
done
# Names a module type declares, and the modules packed as first-class values.
sig_vals=$(awk '/^ *module type .*sig *$/ { s = 1; next } s && /^ *end/ { s = 0 }
  s && /^ *val / { sub(/^ *val /, ""); sub(/[ :].*/, ""); print }' $(find lib -name '*.mli') | sort -u)
packed=$(grep -rhoE "\(module ([A-Z][A-Za-z0-9_]*\.)*[A-Z][A-Za-z0-9_]*\)" "$src"/lib "$src"/bin "$src"/bench "$src"/examples "$src"/perfbench \
  | sed -E 's/.*[ .]([A-Z][A-Za-z0-9_]*)\)$/\1/' | sort -u)
b="(^|[^A-Za-z0-9_'])" e="([^A-Za-z0-9_']|\$)"
# Module aliases, one "file:Alias:Module" line each ([let] local ones too).
aliases=$(grep -rHE "^ *(let )?module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*( in)? *$" "$src" \
  | sed -E 's/^([^:]*): *(let )?module ([A-Za-z0-9_]*) = ([A-Za-z0-9_]*\.)*([A-Za-z0-9_]*).*/\1:\3:\5/')
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli} m=$(basename "$base")
  M=$(printf '%s' "$m" | cut -c1 | tr a-z A-Z)$(printf '%s' "$m" | cut -c2-)
  others=$(find "$src" -name '*.ml' | grep -v -x "$src/$base.ml")
  openers=$(grep -lE "${b}(open!? ([A-Z][A-Za-z0-9_]*\.)*$M$e|([A-Z][A-Za-z0-9_]*\.)*$M\.\()" $others || true)
  # One line per exported val: its submodule ("-" at top level), its
  # name, and 1 if its doc paragraph names a hook, reference or item.
  awk '
    function flush() {
      doc = para ~ /[Tt]est (hook|reference)|Test-only|ROADMAP item|fuzz hook/
      for (k = 1; k <= np; k++) print pend[k], doc
      np = 0; para = ""
    }
    /^ *$/ { flush(); next }
    { para = para " " $0; gsub(/  +/, " ", para) }
    /^ *module type .*sig *$/ { flush(); stack[++d] = "#"; next }
    /^ *module [A-Z][A-Za-z0-9_]* *: *sig *$/ { flush(); stack[++d] = $2; next }
    /^ *end *$/ { flush(); d--; next }
    /^ *val [a-z_]/ {
      skip = 0; for (k = 1; k <= d; k++) if (stack[k] == "#") skip = 1
      if (!skip) { v = $0; sub(/^ *val /, "", v); sub(/[ :].*/, "", v)
        pend[++np] = (d ? stack[d] : "-") " " v }
    }
    END { flush() }' "$mli" | sort -u -k1,2 | while read -r sub v documented; do
    if [ "$sub" = "-" ]; then q=$M name=$M.$v; else q=$sub name=$M.$sub.$v; fi
    users=$( (grep -lE "$b$q\.$v$e" $others
              for a in $(printf '%s\n' "$aliases" | grep ":$q\$"); do
                f=${a%%:*} a=${a#*:}; grep -lE "$b${a%:*}\.$v$e" "$f"; done
              [ -z "$openers" ] || grep -lE "$b$v$e" $openers) 2>/dev/null | sort -u || true)
    prog=$(printf '%s\n' "$users" | grep -v -e "^$src/test/" -e '^$' || true)
    if [ -n "$prog" ]; then continue; fi
    if printf '%s\n' "$packed" | grep -qx "$M" && printf '%s\n' "$sig_vals" | grep -qx "$v"; then
      echo "R $name"
    elif [ -z "$users" ]; then
      echo "U $name"
    elif [ "$documented" = 1 ] || [ "$sub" = Private ]; then
      echo "T $name"
    else
      echo "D $name"
    fi
  done
done > "$src/report"
for kind in "U:no user outside the defining module" \
            "R:used only as a module type requires (no other program user)" \
            "D:used only under test/, doc names no hook, reference or ROADMAP item" \
            "T:used only under test/, documented"; do
  k=${kind%%:*}
  echo "${kind#*:} ($(grep -c "^$k " "$src/report" || true)):"
  grep "^$k " "$src/report" | sed 's/^. /  /' || true
done
unused=$(grep -c "^U " "$src/report" || true)
undocumented=$(grep -c "^D " "$src/report" || true)
rm -rf "$src"
if [ "$unused" -ne 0 ] || [ "$undocumented" -ne 0 ]; then
  echo "export report failed: $unused with no user, $undocumented undocumented test-only" >&2
  exit 1
fi

echo "OK"
