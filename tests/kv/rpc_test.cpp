// RpcNode pending-call table: responses match their calls by rpc id in any
// arrival order, cancelled calls drop late responses, and the table grows
// past its initial capacity.
#include "kv/rpc.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "kv/flat_map.h"

namespace hpres::kv {
namespace {

/// Holds every request until the test answers it, echoing the request key
/// as the response value.
class HoldingPeer final : public RpcNode {
 public:
  using RpcNode::RpcNode;

  void answer(std::size_t i) {
    const Request& req = held_.at(i);
    Response resp;
    resp.rpc_id = req.rpc_id;
    resp.code = StatusCode::kOk;
    resp.value = make_shared_bytes(to_bytes(req.key));
    respond(req.reply_to, std::move(resp));
  }
  [[nodiscard]] std::size_t held() const noexcept { return held_.size(); }

 protected:
  void on_request(KvEnvelope env) override {
    held_.push_back(std::get<Request>(std::move(env.body)));
  }

 private:
  std::vector<Request> held_;
};

class Caller final : public RpcNode {
 public:
  using RpcNode::RpcNode;

 protected:
  void on_request(KvEnvelope /*env*/) override {}
};

class RpcTableTest : public ::testing::Test {
 protected:
  RpcTableTest() {
    caller_.start();
    peer_.start();
  }
  ~RpcTableTest() override {
    // Close both inboxes so the dispatch loops finish and free their
    // frames before the simulator goes away.
    fabric_.inbox(0).close();
    fabric_.inbox(1).close();
    sim_.run();
  }

  sim::Future<Response> call(const std::string& key) {
    Request req;
    req.verb = Verb::kGet;
    req.key = key;
    return caller_.call(1, std::move(req));
  }

  static std::string value_of(const sim::Future<Response>& f) {
    const Response* r = f.try_get();
    if (r == nullptr || !r->value) return "<none>";
    std::string out(r->value->size(), '\0');
    std::memcpy(out.data(), r->value->data(), out.size());
    return out;
  }

  sim::Simulator sim_;
  KvFabric fabric_{sim_, net::FabricParams{}, 2};
  Caller caller_{sim_, fabric_, 0};
  HoldingPeer peer_{sim_, fabric_, 1};
};

TEST_F(RpcTableTest, OutOfOrderResponsesMatchTheirCalls) {
  const sim::Future<Response> a = call("a");
  const sim::Future<Response> b = call("b");
  const sim::Future<Response> c = call("c");
  sim_.run();
  ASSERT_EQ(peer_.held(), 3u);
  peer_.answer(2);
  sim_.run();
  EXPECT_FALSE(a.ready());
  EXPECT_FALSE(b.ready());
  EXPECT_EQ(value_of(c), "c");
  peer_.answer(0);
  peer_.answer(1);
  sim_.run();
  EXPECT_EQ(value_of(a), "a");
  EXPECT_EQ(value_of(b), "b");
}

TEST_F(RpcTableTest, LateResponseAfterCancelIsDropped) {
  const sim::Future<Response> a = call("a");
  const std::uint64_t id = caller_.last_call_id();
  const sim::Future<Response> b = call("b");
  sim_.run();
  caller_.cancel(id);
  peer_.answer(0);
  peer_.answer(1);
  sim_.run();
  EXPECT_FALSE(a.ready());
  EXPECT_EQ(value_of(b), "b");
}

TEST_F(RpcTableTest, CancelResolveYieldsCancelledAndDropsLateResponse) {
  const sim::Future<Response> a = call("a");
  const std::uint64_t id = caller_.last_call_id();
  sim_.run();
  caller_.cancel_resolve(id);
  sim_.run();
  ASSERT_TRUE(a.ready());
  EXPECT_EQ(a.try_get()->code, StatusCode::kCancelled);
  EXPECT_EQ(a.try_get()->rpc_id, id);
  peer_.answer(0);  // stale: the future keeps its kCancelled value
  sim_.run();
  EXPECT_EQ(a.try_get()->code, StatusCode::kCancelled);
  EXPECT_FALSE(a.try_get()->value);
  caller_.cancel_resolve(id);  // unknown id: no-op
}

TEST_F(RpcTableTest, MoreCallsInFlightThanInitialCapacity) {
  constexpr std::size_t kCalls = 5 * FlatMap<int>::kInitialCapacity + 3;
  std::vector<sim::Future<Response>> futures;
  for (std::size_t i = 0; i < kCalls; ++i) {
    futures.push_back(call("k" + std::to_string(i)));
  }
  sim_.run();
  ASSERT_EQ(peer_.held(), kCalls);
  // Answer odd calls first, then even ones, each half in reverse order.
  for (std::size_t i = kCalls; i-- > 0;) {
    if (i % 2 == 1) peer_.answer(i);
  }
  for (std::size_t i = kCalls; i-- > 0;) {
    if (i % 2 == 0) peer_.answer(i);
  }
  sim_.run();
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(value_of(futures[i]), "k" + std::to_string(i)) << i;
  }
}

}  // namespace
}  // namespace hpres::kv
