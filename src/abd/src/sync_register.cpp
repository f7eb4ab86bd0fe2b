#include "abdkit/abd/sync_register.hpp"

#include <future>
#include <memory>

namespace abdkit::abd {

namespace {

std::optional<OpResult> await(std::future<OpResult>& future, Duration timeout) {
  if (future.wait_for(timeout) != std::future_status::ready) return std::nullopt;
  return future.get();
}

}  // namespace

std::optional<OpResult> SyncRegister::read(ObjectId object, Duration timeout) {
  // shared_ptr: the callback may outlive this frame if the op completes
  // after the timeout expired.
  auto promise = std::make_shared<std::promise<OpResult>>();
  std::future<OpResult> future = promise->get_future();
  read_async(object, [promise](const OpResult& r) { promise->set_value(r); });
  return await(future, timeout);
}

std::optional<OpResult> SyncRegister::write(ObjectId object, Value value,
                                            Duration timeout) {
  auto promise = std::make_shared<std::promise<OpResult>>();
  std::future<OpResult> future = promise->get_future();
  write_async(object, std::move(value),
              [promise](const OpResult& r) { promise->set_value(r); });
  return await(future, timeout);
}

void SyncRegister::read_async(ObjectId object, OpCallback done) {
  post_([node = node_, object, done = std::move(done)]() mutable {
    node->read(object, std::move(done));
  });
}

void SyncRegister::write_async(ObjectId object, Value value, OpCallback done) {
  post_([node = node_, object, value = std::move(value),
         done = std::move(done)]() mutable {
    node->write(object, std::move(value), std::move(done));
  });
}

}  // namespace abdkit::abd
