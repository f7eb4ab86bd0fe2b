#!/usr/bin/env bash
# Localhost multi-process quorum smoke test.
#
#   net_quorum_smoke.sh <abd_node-binary> <abd_net_cli-binary>
#
# Deploys three abd_node replicas as separate OS processes, drives a
# checker-verified workload through abd_net_cli, then SIGKILLs one replica
# (the paper's crash fault: f = 1 < n/2) and asserts a second workload —
# with a different seed, against the warm surviving majority — still
# completes and stays linearizable. Exercises the real binaries end to end:
# argument parsing, TCP listen/dial, reconnect backoff, retransmission
# liveness, and the embedded linearizability check. The peer table lists
# only the 3 replicas: the CLI (id 3) has no entry and listens nowhere, and
# its replies ride back on its own connections.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <abd_node> <abd_net_cli>" >&2
  exit 2
fi
NODE_BIN=$1
CLI_BIN=$2

source "$(dirname "$0")/smoke_lib.sh"
smoke_peers 3

echo "== starting 3 replicas on $PEERS"
for id in 0 1 2; do
  spawn_node --id "$id" --replicas 3 --peers "$PEERS"
done
wait_ready 0 1 2

echo "== full-strength workload (seed 1)"
if ! "$CLI_BIN" --id 3 --replicas 3 --peers "$PEERS" --ops 20 --objects 2 \
    --timeout-ms 10000 --seed 1; then
  echo "FAIL: workload against the full replica set" >&2
  exit 1
fi

echo "== SIGKILL replica 2 (crash fault, f=1)"
kill_node 2

echo "== degraded workload (seed 2, majority of 2/3 alive)"
if ! "$CLI_BIN" --id 3 --replicas 3 --peers "$PEERS" --ops 20 --objects 2 \
    --timeout-ms 15000 --seed 2; then
  echo "FAIL: workload after killing one replica" >&2
  exit 1
fi

echo "== PASS: quorum served through a crash fault, histories linearizable"
exit 0
