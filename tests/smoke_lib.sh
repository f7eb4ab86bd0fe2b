# Shared helpers for the localhost multi-process smoke tests. Source this
# after setting NODE_BIN; it owns the port block, the PID registry, and the
# cleanup trap, so the caller only spawns/kills/waits:
#
#   NODE_BIN=$1
#   source "$(dirname "$0")/smoke_lib.sh"
#   smoke_peers 3                      # sets PEERS to 3 host:port entries
#   spawn_node --id 0 --replicas 3 --peers "$PEERS"
#   wait_ready 0 1 2                   # poll the listen sockets (no sleeps)
#   kill_node 2                        # SIGKILL by replica id
#
# Readiness is polled via bash's /dev/tcp connect rather than a fixed sleep:
# the fleet is declared up the moment every listen socket accepts, so the
# scripts are both faster on idle machines and robust on loaded ones.

# Port block for this fleet. Two separation concerns, both learned the
# flaky way: (a) the block must sit BELOW the kernel ephemeral range
# (net.ipv4.ip_local_port_range, 32768+ by default) or outbound loopback
# connections from anything else running — including the R1 soak next to us
# under parallel ctest — land their source ports inside our block; (b) $$
# alone is not enough spread, because parallel ctest launches these scripts
# with CONSECUTIVE shell PIDs and adjacent bases overlap once a fleet needs
# more ports than the PID gap. So: stride the PID hash by 32 (no smoke
# fleet needs more), stay in [20000, 32672], and probe the base port,
# advancing a stride while something is already listening there (covers
# PID-hash collisions with a concurrently running fleet).
PORT_BASE=$((20000 + ($$ % 396) * 32))
while (exec 3<>"/dev/tcp/127.0.0.1/$PORT_BASE") 2>/dev/null; do
  exec 3>&- 3<&-
  PORT_BASE=$((PORT_BASE + 32))
  if ((PORT_BASE >= 32700)); then
    echo "FAIL: no free port block below the ephemeral range" >&2
    exit 1
  fi
done

PIDS=()
smoke_cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null
  done
  wait 2>/dev/null
}
trap smoke_cleanup EXIT

# smoke_peers <n>: set PEERS to n comma-separated 127.0.0.1:port entries
# starting at PORT_BASE (index == replica id; clients need no entry).
smoke_peers() {
  PEERS="127.0.0.1:$PORT_BASE"
  local i
  for ((i = 1; i < $1; i++)); do
    PEERS="$PEERS,127.0.0.1:$((PORT_BASE + i))"
  done
}

# spawn_node <args...>: launch $NODE_BIN in the background and register its
# PID for cleanup/kill_node. PIDS is indexed by spawn order, so spawning
# replicas in id order makes kill_node's argument the replica id.
spawn_node() {
  "$NODE_BIN" "$@" &
  PIDS+=($!)
}

# wait_ready <id...>: block until every listed replica both stays alive and
# accepts a TCP connection on its listen port (PORT_BASE + id). Fails the
# test after ~10s without progress.
wait_ready() {
  local id deadline=$((SECONDS + 10))
  for id in "$@"; do
    while true; do
      if ! kill -0 "${PIDS[$id]}" 2>/dev/null; then
        echo "FAIL: replica $id exited during startup" >&2
        exit 1
      fi
      if (exec 3<>"/dev/tcp/127.0.0.1/$((PORT_BASE + id))") 2>/dev/null; then
        exec 3>&- 3<&-
        break
      fi
      if ((SECONDS >= deadline)); then
        echo "FAIL: replica $id not accepting on port $((PORT_BASE + id))" >&2
        exit 1
      fi
      sleep 0.1
    done
  done
}

# kill_node <id>: SIGKILL the replica spawned id-th and reap it.
kill_node() {
  kill -9 "${PIDS[$1]}"
  wait "${PIDS[$1]}" 2>/dev/null
}
