// Blocking facade over a RegisterNode — the API a conventional application
// thread expects ("read(); write();"), built on the asynchronous protocol
// underneath. It works on any runtime that hosts the node on its own
// thread: the runtime's post function (runtime::Cluster::post for one
// host, net::Transport::post) is the only way it touches the node.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "abdkit/abd/register_node.hpp"

namespace abdkit::abd {

class SyncRegister {
 public:
  /// Runs a function on the thread that owns the node.
  using Post = std::function<void(std::function<void()>)>;

  /// `post` must run its argument on `node`'s thread.
  SyncRegister(Post post, RegisterNode& node) : post_{std::move(post)}, node_{&node} {}

  /// Blocking read; nullopt if the operation did not complete within
  /// `timeout` (e.g., no quorum is reachable). The protocol operation is NOT
  /// cancelled on timeout — it may still complete internally later, which is
  /// harmless for registers.
  [[nodiscard]] std::optional<OpResult> read(ObjectId object, Duration timeout);

  /// Blocking write with the same timeout semantics.
  [[nodiscard]] std::optional<OpResult> write(ObjectId object, Value value,
                                              Duration timeout);

  /// Pipelined (non-blocking) read: posts the operation and returns at
  /// once; `done` runs on the node's thread. Any number of operations may
  /// be in flight — abd::Client tracks each as its own pending op, so a
  /// window of W reads costs W concurrent quorum rounds instead of W
  /// serialized round trips.
  void read_async(ObjectId object, OpCallback done);

  /// Pipelined write. The SWMR protocol assumes one serial writer per
  /// object; callers must not overlap write_async calls on one object.
  void write_async(ObjectId object, Value value, OpCallback done);

 private:
  Post post_;
  RegisterNode* node_;
};

}  // namespace abdkit::abd
