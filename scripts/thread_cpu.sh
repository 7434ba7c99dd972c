#!/usr/bin/env bash
# thread_cpu.sh <command...>
#
# Runs the command and attributes its CPU time to thread names: while it
# runs, samples /proc/<pid>/task/*/{comm,stat} for the command and every
# process it starts (so `cargo run ...` works), keeps the last reading of
# each thread, and on exit prints user/sys seconds per thread name with
# trailing digits folded (`reactor-0`, `reactor-1` -> `reactor-*`).
#
# The container has no perf/strace; this is the first step of any
# optimisation on the threaded hosts: find which threads burn the CPU,
# and whether in user code or in the kernel, before reading any code.
#
# The command's stdout/stderr pass through; the table goes to stderr.
# THREAD_CPU_INTERVAL (seconds, default 0.2) sets the sampling period;
# a thread that lives and dies between two samples is not seen.
set -u

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <command...>" >&2
    exit 2
fi

interval="${THREAD_CPU_INTERVAL:-0.2}"
tck="$(getconf CLK_TCK 2>/dev/null || echo 100)"
samples="$(mktemp)"
trap 'rm -f "$samples"' EXIT

"$@" &
root=$!

# The root and all its live descendants, by walking ppid links.
tree() {
    local pids="$root" frontier="$root" next
    while [ -n "$frontier" ]; do
        next=""
        for p in $frontier; do
            next="$next $(pgrep -P "$p" 2>/dev/null | tr '\n' ' ')"
        done
        frontier="$(echo $next)"
        pids="$pids $frontier"
    done
    echo $pids
}

# One line per thread: "<pid>/<tid> <utime> <stime> <comm>". comm may hold
# spaces and parentheses, so the counters are cut after the last ')'.
sample() {
    local pid t rest comm
    for pid in $(tree); do
        for t in /proc/"$pid"/task/[0-9]*; do
            { read -r rest <"$t/stat" && read -r comm <"$t/comm"; } 2>/dev/null || continue
            rest="${rest##*) }"
            set -- $rest
            echo "$pid/${t##*/} ${12} ${13} $comm"
        done
    done
}

while kill -0 "$root" 2>/dev/null; do
    sample >>"$samples"
    sleep "$interval"
done
wait "$root"
status=$?

# Fold the samples: last reading per thread, summed per folded name.
rows="$(awk -v tck="$tck" '
{
    id = $1; ut[id] = $2; st[id] = $3
    name = $4; for (i = 5; i <= NF; i++) name = name " " $i
    sub(/[0-9]+$/, "*", name); group[id] = name
}
END {
    for (id in ut) {
        g = group[id]; u[g] += ut[id] / tck; s[g] += st[id] / tck; n[g]++
        total += (ut[id] + st[id]) / tck
    }
    if (total == 0) total = 1
    for (g in u) {
        t = u[g] + s[g]
        printf "%-24s %7d %9.2f %9.2f %9.2f %6.1f%%\n", g, n[g], u[g], s[g], t, 100 * t / total
    }
}' "$samples" | sort -k5,5 -g -r)"
{
    printf '%-24s %7s %9s %9s %9s %7s\n' thread threads user_s sys_s total_s share
    echo "$rows"
} >&2

exit "$status"
