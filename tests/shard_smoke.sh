#!/usr/bin/env bash
# Localhost multi-shard quorum smoke test.
#
#   shard_smoke.sh <abd_node-binary> <abd_net_cli-binary>
#
# Deploys SIX abd_node replicas as separate OS processes forming TWO
# independent 3-replica quorum groups (--shards 2: group 0 = {0,1,2},
# group 1 = {3,4,5}), drives a checker-verified workload through
# abd_net_cli --shards 2 routing objects across both groups, then SIGKILLs
# one replica of group 0 (the paper's crash fault, f = 1 per group) and
# asserts a second workload spanning ALL shards — including keys owned by
# the degraded group — still completes and stays linearizable: group 0
# serves from its surviving 2/3 majority while group 1 is untouched. The
# peer table lists only the 6 replicas; the CLI (id 6) has no entry.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <abd_node> <abd_net_cli>" >&2
  exit 2
fi
NODE_BIN=$1
CLI_BIN=$2

source "$(dirname "$0")/smoke_lib.sh"
smoke_peers 6

echo "== starting 6 replicas (2 quorum groups of 3) on $PEERS"
for id in 0 1 2 3 4 5; do
  spawn_node --id "$id" --replicas 6 --shards 2 --peers "$PEERS"
done
wait_ready 0 1 2 3 4 5

# 8 objects rendezvous-hash across both groups (the placement is a fixed
# function of the key, so coverage of both shards is deterministic); the CLI
# prints the per-shard op split and exits nonzero on any timeout or
# linearizability violation.
echo "== full-strength workload across both shards (seed 1)"
if ! "$CLI_BIN" --id 6 --replicas 6 --shards 2 --peers "$PEERS" --ops 24 \
    --objects 8 --timeout-ms 10000 --seed 1; then
  echo "FAIL: workload against the full two-shard deployment" >&2
  exit 1
fi

echo "== SIGKILL replica 1 (a member of group 0 only; group 1 untouched)"
kill_node 1

echo "== degraded workload across ALL shards (seed 2, group 0 at 2/3)"
if ! "$CLI_BIN" --id 6 --replicas 6 --shards 2 --peers "$PEERS" --ops 24 \
    --objects 8 --timeout-ms 15000 --seed 2; then
  echo "FAIL: workload after killing one replica of group 0" >&2
  exit 1
fi

echo "== PASS: both shards served through a crash fault in one group, histories linearizable"
exit 0
