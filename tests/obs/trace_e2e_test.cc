// Tracer unit behavior plus the acceptance e2e: one spawn routed through
// SpawnService over the sharded zygote pool must leave the complete
// submit → route → wire.send → shard.dispatch → exec_confirmed →
// exit_observed chain under the handle's single trace id.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/obs/trace.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::Global().ResetForTest(); }
};

TEST_F(TraceTest, RecordAndEventRetainOrder) {
  auto& tracer = obs::Tracer::Global();
  tracer.Record(7, "first", 100, 200, "d1");
  tracer.Event(7, "second", "d2");
  tracer.Record(8, "other-trace", 100, 200);

  std::vector<obs::TraceSpan> spans = tracer.SpansForTrace(7);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].end_ns, 200u);
  EXPECT_EQ(spans[0].detail, "d1");
  EXPECT_EQ(spans[1].name, "second");
  EXPECT_EQ(spans[1].start_ns, spans[1].end_ns);  // point event
  EXPECT_EQ(tracer.AllSpans().size(), 3u);
}

TEST_F(TraceTest, TraceIdZeroIsDropped) {
  auto& tracer = obs::Tracer::Global();
  tracer.Record(0, "unrouted", 1, 2);
  tracer.Event(0, "unrouted-event");
  EXPECT_TRUE(tracer.AllSpans().empty());
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  auto& tracer = obs::Tracer::Global();
  tracer.set_enabled(false);
  tracer.Record(9, "dropped", 1, 2);
  EXPECT_TRUE(tracer.AllSpans().empty());
  tracer.set_enabled(true);
  tracer.Record(9, "kept", 1, 2);
  EXPECT_EQ(tracer.AllSpans().size(), 1u);
}

TEST_F(TraceTest, RenderJsonListsSpans) {
  auto& tracer = obs::Tracer::Global();
  tracer.Record(3, "span\"quoted", 10, 20, "detail");
  std::string json = tracer.RenderJson();
  EXPECT_NE(json.find("\"trace_id\":3"), std::string::npos);
  EXPECT_NE(json.find("span\\\"quoted"), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // one line + trailing newline
}

// The acceptance test: a full spawn through the service over a real sharded
// pool reconstructs its entire lifecycle from the handle's one trace id.
TEST_F(TraceTest, EndToEndSpawnLeavesCompleteSpanChain) {
  auto pool = ShardedForkServer::Start(ShardedForkServer::Options{2});
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();
  std::shared_ptr<ShardedForkServer> shared = std::move(*pool);

  SpawnService service;
  service.AddRoute(ShardedTransport::Adopt(shared));

  Spawner spawner("/bin/true");
  auto handle = service.Spawn(spawner);
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const uint64_t trace_id = handle->trace_id();
  ASSERT_NE(trace_id, 0u);

  auto status = handle->Wait();
  ASSERT_TRUE(status.ok()) << status.error().ToString();
  EXPECT_TRUE(status->Success());

  std::vector<obs::TraceSpan> spans = obs::Tracer::Global().SpansForTrace(trace_id);
  auto find = [&](const std::string& name) -> const obs::TraceSpan* {
    auto it = std::find_if(spans.begin(), spans.end(),
                           [&](const obs::TraceSpan& s) { return s.name == name; });
    return it == spans.end() ? nullptr : &*it;
  };

  const obs::TraceSpan* submit = find("submit");
  const obs::TraceSpan* route = find("route:sharded");
  const obs::TraceSpan* wire = find("wire.send");
  const obs::TraceSpan* dispatch = find("shard.dispatch");
  const obs::TraceSpan* exec = find("exec_confirmed");
  const obs::TraceSpan* exit_ev = find("exit_observed");

  ASSERT_NE(submit, nullptr);
  ASSERT_NE(route, nullptr);
  ASSERT_NE(wire, nullptr);
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(exec, nullptr);
  ASSERT_NE(exit_ev, nullptr);

  EXPECT_EQ(submit->detail, "ok");
  EXPECT_EQ(route->detail, "ok");
  EXPECT_EQ(dispatch->detail.rfind("shard=", 0), 0u);
  EXPECT_EQ(exec->detail, "sharded");
  EXPECT_EQ(exit_ev->detail, "sharded");

  // Nesting: wire send within the route attempt within the submit; exit
  // observed no earlier than exec confirmation.
  EXPECT_LE(submit->start_ns, route->start_ns);
  EXPECT_LE(route->start_ns, wire->start_ns);
  EXPECT_GE(route->end_ns, wire->end_ns);
  EXPECT_GE(submit->end_ns, route->end_ns);
  EXPECT_GE(exit_ev->start_ns, exec->start_ns);

  ASSERT_TRUE(shared->Shutdown().ok());
}

// A spawn that exhausts every route still closes its submit span — partial
// traces are precisely the interesting ones.
TEST_F(TraceTest, FailedSpawnClosesSubmitSpan) {
  SpawnService service;
  Spawner spawner("/bin/true");
  auto handle = service.Spawn(spawner);  // no routes registered
  ASSERT_FALSE(handle.ok());

  std::vector<obs::TraceSpan> all = obs::Tracer::Global().AllSpans();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "submit");
  EXPECT_EQ(all[0].detail, "no_routes");
}

}  // namespace
}  // namespace forklift
