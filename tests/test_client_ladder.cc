// Client-ladder conformance: every wire::MsgKind, sent as one
// CatalogClient::Call through each production ladder, must answer
// exactly what an unsharded in-process catalog answers, and every
// mutation — each of the eight typed single-op methods, which travel as
// one-op ApplyBatch calls, and a multi-op batch — must land. The
// ladders:
//
//   InProcess
//   Wire -> server -> InProcess
//   Resilient -> Wire -> server -> Sharded (3 shards)
//   Caching -> Wire -> server -> InProcess
//
// Each rung overrides one face of CatalogClient (Call, or the typed
// methods) and inherits the other; a rung that overrode neither would
// recurse between the two forever, so sending every kind through every
// ladder also proves each rung implements the whole surface.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/client.h"
#include "catalog/sharding.h"
#include "catalog/wire.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"

namespace vdg {
namespace {

using wire::MsgKind;

constexpr const char* kAuthority = "ladder.org";
constexpr int kDatasets = 10;

std::unique_ptr<VirtualDataCatalog> OpenCatalog(bool partition) {
  auto catalog = std::make_unique<VirtualDataCatalog>(kAuthority);
  if (partition) catalog->set_partition_mode(true);
  EXPECT_TRUE(catalog->Open().ok());
  return catalog;
}

/// The same small catalog through any client: a transformation,
/// annotated datasets d0..d9, derivations v0..v3 producing o0..o3, and
/// one replica of d0.
void Seed(CatalogClient& client) {
  Transformation xf("xf", Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  ASSERT_TRUE(xf.AddArg(std::move(out)).ok());
  FormalArg in;
  in.name = "in";
  in.direction = ArgDirection::kIn;
  ASSERT_TRUE(xf.AddArg(std::move(in)).ok());
  xf.set_executable("/bin/xf");
  ASSERT_TRUE(client.DefineTransformation(std::move(xf)).ok());
  for (int i = 0; i < kDatasets; ++i) {
    Dataset ds;
    ds.name = "d" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/data/" + ds.name);
    ds.size_bytes = 1000 + i;
    ds.annotations.Set("tier", i % 3 == 0 ? "gold" : "std");
    ASSERT_TRUE(client.DefineDataset(std::move(ds)).ok());
  }
  for (int j = 0; j < 4; ++j) {
    Derivation dv("v" + std::to_string(j), "xf");
    ASSERT_TRUE(dv.AddArg(ActualArg::DatasetRef(
                              "out", "o" + std::to_string(j),
                              ArgDirection::kOut))
                    .ok());
    ASSERT_TRUE(dv.AddArg(ActualArg::DatasetRef(
                              "in", "d" + std::to_string(j),
                              ArgDirection::kIn))
                    .ok());
    ASSERT_TRUE(client.DefineDerivation(std::move(dv)).ok());
  }
  Replica replica;
  replica.dataset = "d0";
  replica.site = "east";
  replica.physical_path = "/replicas/d0";
  ASSERT_TRUE(client.AddReplica(std::move(replica)).ok());
}

/// One ladder and everything it stands on, torn down top first.
struct Ladder {
  std::string name;
  bool sharded = false;
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::shared_ptr<CatalogClient> backend;
  std::unique_ptr<CatalogServer> server;
  std::shared_ptr<CatalogClient> top;
};

std::shared_ptr<WireCatalogClient> Dial(CatalogServer* server) {
  Result<std::shared_ptr<WireCatalogClient>> wire =
      WireCatalogClient::Connect(server);
  EXPECT_TRUE(wire.ok()) << wire.status();
  return wire.ok() ? *wire : nullptr;
}

enum class Shape { kInProcess, kWire, kResilientSharded, kCachingWire };

std::unique_ptr<Ladder> MakeLadder(Shape shape) {
  auto ladder = std::make_unique<Ladder>();
  if (shape == Shape::kResilientSharded) {
    ladder->name = "Resilient->Wire->server->Sharded(3)";
    ladder->sharded = true;
    std::vector<std::shared_ptr<CatalogClient>> shards;
    for (int k = 0; k < 3; ++k) {
      ladder->catalogs.push_back(OpenCatalog(/*partition=*/true));
      shards.push_back(std::make_shared<InProcessCatalogClient>(
          ladder->catalogs.back().get()));
    }
    ladder->backend = std::make_shared<ShardedCatalogClient>(shards);
  } else {
    ladder->catalogs.push_back(OpenCatalog(/*partition=*/false));
    ladder->backend = std::make_shared<InProcessCatalogClient>(
        ladder->catalogs.back().get());
  }
  if (shape == Shape::kInProcess) {
    ladder->name = "InProcess";
    ladder->top = ladder->backend;
    return ladder;
  }
  ServerOptions options;
  options.workers = 2;
  ladder->server = std::make_unique<CatalogServer>(ladder->backend, options);
  CatalogServer* server = ladder->server.get();
  switch (shape) {
    case Shape::kWire:
      ladder->name = "Wire->server->InProcess";
      ladder->top = Dial(server);
      break;
    case Shape::kCachingWire:
      ladder->name = "Caching->Wire->server->InProcess";
      ladder->top = std::make_shared<CachingCatalogClient>(Dial(server));
      break;
    default: {
      ResilientEndpoint endpoint;
      endpoint.name = "server";
      endpoint.connect = [server]() -> Result<std::shared_ptr<CatalogClient>> {
        VDG_ASSIGN_OR_RETURN(std::shared_ptr<WireCatalogClient> wire,
                             WireCatalogClient::Connect(server));
        return std::static_pointer_cast<CatalogClient>(wire);
      };
      ResilientOptions options;
      options.backoff_base = std::chrono::milliseconds(1);
      ladder->top = std::make_shared<ResilientCatalogClient>(
          std::vector<ResilientEndpoint>{std::move(endpoint)}, options);
      break;
    }
  }
  return ladder;
}

wire::Request Req(MsgKind kind, decltype(wire::Request::body) body) {
  wire::Request request;
  request.kind = kind;
  request.body = std::move(body);
  return request;
}

wire::Request NameRequest(MsgKind kind, std::string name) {
  return Req(kind, wire::NameReq{std::move(name)});
}

/// A response as the bytes it encodes to, with catalog-assigned
/// invocation and replica ids blanked: a sharded catalog mints its own.
std::string Canon(const Result<wire::Response>& result) {
  if (!result.ok()) return "transport error: " + result.status().ToString();
  wire::Response resp = *result;
  auto strip = [](std::vector<Invocation>& invocations) {
    for (Invocation& invocation : invocations) {
      invocation.id.clear();
      invocation.produced_replicas.clear();
    }
  };
  if (auto* body = std::get_if<wire::InvocationsResp>(&resp.body)) {
    strip(body->invocations);
  }
  if (auto* body = std::get_if<wire::StepResp>(&resp.body)) {
    strip(body->step.invocations);
  }
  return wire::EncodeResponseFrame(0, resp);
}

/// Kinds whose answer a sharded catalog legitimately words its own
/// way: the composite version, and the ids and the version inside a
/// BatchResult. Through the sharded ladder these must succeed with the
/// same body type; the content reads must match.
bool ShardedAnswersDiffer(MsgKind kind) {
  return kind == MsgKind::kVersion || kind == MsgKind::kApplyBatch;
}

class ClientLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_catalog_ = OpenCatalog(/*partition=*/false);
    reference_ = std::make_shared<InProcessCatalogClient>(
        reference_catalog_.get());
    Seed(*reference_);
    for (Shape shape : {Shape::kInProcess, Shape::kWire,
                        Shape::kResilientSharded, Shape::kCachingWire}) {
      ladders_.push_back(MakeLadder(shape));
      ASSERT_NE(ladders_.back()->top, nullptr);
      Seed(*ladders_.back()->top);
    }
  }

  /// Sends `request` through every ladder and the reference, expects
  /// identical answers, and returns the reference's answer.
  Result<wire::Response> SendEverywhere(const wire::Request& request) {
    Result<wire::Response> expected = reference_->Call(request);
    EXPECT_TRUE(expected.ok()) << expected.status();
    seen_.insert(request.kind);
    for (const auto& ladder : ladders_) {
      SCOPED_TRACE(ladder->name + " " +
                   std::string(wire::MsgKindName(request.kind)));
      Result<wire::Response> got = ladder->top->Call(request);
      if (ladder->sharded && request.kind == MsgKind::kChangesSince) {
        // A composite version is not delta-addressable: the sharded
        // catalog answers FailedPrecondition and consumers re-anchor
        // per shard (ShardChangesSince).
        const Status& status = got.ok() ? got->status : got.status();
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
        continue;
      }
      EXPECT_TRUE(got.ok()) << got.status();
      if (!got.ok()) continue;
      EXPECT_EQ(got->kind, request.kind);
      if (request.kind == MsgKind::kHandshake) {
        const auto* hello = std::get_if<wire::HandshakeResp>(&got->body);
        EXPECT_TRUE(hello != nullptr &&
                    hello->authority == ladder->top->authority() &&
                    !hello->read_only);
      } else if (ladder->sharded && ShardedAnswersDiffer(request.kind)) {
        EXPECT_TRUE(got->status.ok()) << got->status;
        EXPECT_EQ(got->body.index(), expected->body.index());
      } else {
        EXPECT_EQ(Canon(got), Canon(expected));
      }
    }
    return expected;
  }

  /// Runs `mutate` (a typed single-op method) on the reference and on
  /// every ladder, expects it to succeed everywhere, then checks that
  /// `probe` now reads differently than before on the reference and
  /// identically on every ladder.
  void ExpectTypedLands(const std::function<Status(CatalogClient&)>& mutate,
                        const wire::Request& probe) {
    const std::string before = Canon(reference_->Call(probe));
    ASSERT_TRUE(mutate(*reference_).ok());
    const std::string after = Canon(reference_->Call(probe));
    EXPECT_NE(before, after) << "invisible to its probe "
                             << wire::MsgKindName(probe.kind);
    for (const auto& ladder : ladders_) {
      SCOPED_TRACE(ladder->name);
      Status status = mutate(*ladder->top);
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(Canon(ladder->top->Call(probe)), after);
    }
  }

  /// Applies `mutation` everywhere, then checks that `probe` now reads
  /// differently than before on the reference (so it observes the
  /// mutation) and identically on every ladder (so it landed there).
  void ExpectLands(const wire::Request& mutation, const wire::Request& probe) {
    const std::string before = Canon(reference_->Call(probe));
    Result<wire::Response> applied = SendEverywhere(mutation);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(applied->status.ok()) << applied->status;
    const std::string after = Canon(SendEverywhere(probe));
    EXPECT_NE(before, after) << wire::MsgKindName(mutation.kind)
                             << " is invisible to its probe";
  }

  std::unique_ptr<VirtualDataCatalog> reference_catalog_;
  std::shared_ptr<CatalogClient> reference_;
  std::vector<std::unique_ptr<Ladder>> ladders_;
  std::set<MsgKind> seen_;
};

TEST_F(ClientLadderTest, EveryKindAnswersLikeTheUnshardedCatalog) {
  // ---- reads ----
  SendEverywhere(Req(MsgKind::kHandshake, wire::EmptyReq{}));
  SendEverywhere(Req(MsgKind::kVersion, wire::EmptyReq{}));
  SendEverywhere(Req(MsgKind::kChangesSince, wire::ChangesSinceReq{0}));
  SendEverywhere(NameRequest(MsgKind::kGetDataset, "d3"));
  SendEverywhere(NameRequest(MsgKind::kGetTransformation, "xf"));
  SendEverywhere(NameRequest(MsgKind::kGetDerivation, "v1"));
  SendEverywhere(NameRequest(MsgKind::kHasDataset, "d2"));
  SendEverywhere(NameRequest(MsgKind::kIsMaterialized, "d0"));
  SendEverywhere(NameRequest(MsgKind::kProducerOf, "o1"));
  SendEverywhere(NameRequest(MsgKind::kInvocationsOf, "v1"));
  DatasetQuery gold;
  gold.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  SendEverywhere(Req(MsgKind::kFindDatasets, wire::FindDatasetsReq{gold}));
  TransformationQuery xf_prefix;
  xf_prefix.name_prefix = "x";
  SendEverywhere(Req(MsgKind::kFindTransformations,
                     wire::FindTransformationsReq{xf_prefix}));
  SendEverywhere(
      Req(MsgKind::kFindDerivations, wire::FindDerivationsReq{{}}));
  SendEverywhere(NameRequest(MsgKind::kAllNames, "dataset"));
  SendEverywhere(Req(MsgKind::kTypeConforms,
                     wire::TypeConformsReq{DatasetType{}, DatasetType{}}));
  SendEverywhere(Req(MsgKind::kBatchGet,
                     wire::BatchGetReq{{{"dataset", "d1"},
                                        {"transformation", "xf"},
                                        {"derivation", "v2"},
                                        {"dataset", "ghost"}}}));
  SendEverywhere(NameRequest(MsgKind::kGetProvenanceStep, "o2"));

  // ---- the one mutation kind, checked through a probe read ----
  std::vector<CatalogMutation> batch;
  batch.push_back(
      CatalogMutation::Annotate("dataset", "d7", "batch", int64_t{1}));
  batch.push_back(CatalogMutation::SetDatasetSize("d8", 888));
  ExpectLands(Req(MsgKind::kApplyBatch, wire::ApplyBatchReq{batch, {}}),
              Req(MsgKind::kBatchGet,
                  wire::BatchGetReq{{{"dataset", "d7"}, {"dataset", "d8"}}}));

  // Every kind went through every ladder.
  for (uint8_t raw = 0; raw < 255; ++raw) {
    if (!wire::IsValidMsgKind(raw)) continue;
    EXPECT_TRUE(seen_.count(static_cast<MsgKind>(raw)))
        << wire::MsgKindName(static_cast<MsgKind>(raw)) << " never sent";
  }
  EXPECT_EQ(seen_.size(), 18u);
}

TEST_F(ClientLadderTest, EverySingleOpMethodLandsThroughEveryLadder) {
  Dataset fresh;
  fresh.name = "m-ds";
  fresh.descriptor = DatasetDescriptor::File("/data/m-ds");
  ExpectTypedLands(
      [&](CatalogClient& c) { return c.DefineDataset(fresh); },
      NameRequest(MsgKind::kHasDataset, "m-ds"));

  Transformation xf2("m-xf", Transformation::Kind::kSimple);
  FormalArg arg;
  arg.name = "out";
  arg.direction = ArgDirection::kOut;
  ASSERT_TRUE(xf2.AddArg(std::move(arg)).ok());
  xf2.set_executable("/bin/m-xf");
  ExpectTypedLands(
      [&](CatalogClient& c) { return c.DefineTransformation(xf2); },
      NameRequest(MsgKind::kGetTransformation, "m-xf"));

  Derivation dv("m-dv", "xf");
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", "m-out", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", "d5", ArgDirection::kIn)).ok());
  ExpectTypedLands([&](CatalogClient& c) { return c.DefineDerivation(dv); },
                   NameRequest(MsgKind::kProducerOf, "m-out"));

  ExpectTypedLands(
      [](CatalogClient& c) {
        return c.Annotate("dataset", "d4", "note", "ladder");
      },
      NameRequest(MsgKind::kGetDataset, "d4"));

  ExpectTypedLands(
      [](CatalogClient& c) { return c.SetDatasetSize("d6", 777); },
      NameRequest(MsgKind::kGetDataset, "d6"));

  Invocation run;
  run.derivation = "v1";
  run.context.site = "east";
  run.duration_s = 3;
  ExpectTypedLands(
      [&](CatalogClient& c) {
        Result<std::string> id = c.RecordInvocation(run);
        EXPECT_TRUE(!id.ok() || !id->empty());
        return id.status();
      },
      NameRequest(MsgKind::kInvocationsOf, "v1"));

  // AddReplica / InvalidateReplica: each catalog assigns its own
  // replica id, so each client invalidates the id it was handed.
  std::map<CatalogClient*, std::string> replica_ids;
  Replica replica;
  replica.dataset = "d5";
  replica.site = "west";
  replica.physical_path = "/replicas/d5";
  const wire::Request materialized =
      NameRequest(MsgKind::kIsMaterialized, "d5");
  ExpectTypedLands(
      [&](CatalogClient& c) {
        Result<std::string> id = c.AddReplica(replica);
        if (!id.ok()) return id.status();
        EXPECT_FALSE(id->empty());
        replica_ids[&c] = *id;
        return Status::OK();
      },
      materialized);
  ExpectTypedLands(
      [&](CatalogClient& c) { return c.InvalidateReplica(replica_ids[&c]); },
      materialized);
}

TEST_F(ClientLadderTest, CompositeChangesSinceIsAnsweredOnceNotRetried) {
  // The sharded catalog's refusal of a composite ChangesSince is an
  // answer (FailedPrecondition), not an admission bounce: the
  // resilient rung returns it after one attempt and the endpoint stays
  // healthy.
  for (const auto& ladder : ladders_) {
    if (!ladder->sharded) continue;
    auto* resilient = dynamic_cast<ResilientCatalogClient*>(ladder->top.get());
    ASSERT_NE(resilient, nullptr);
    const ResilientStats before = resilient->stats();
    Result<std::vector<CatalogChange>> changes = resilient->ChangesSince(0);
    ASSERT_FALSE(changes.ok());
    EXPECT_EQ(changes.status().code(), StatusCode::kFailedPrecondition)
        << changes.status();
    const ResilientStats after = resilient->stats();
    EXPECT_EQ(after.retries, before.retries);
    EXPECT_EQ(after.exhausted_calls, before.exhausted_calls);
    EXPECT_EQ(resilient->breaker_state(0), BreakerState::kClosed);
  }
}

TEST(ClientLadderIdempotency, OneTableDecidesRetrySafety) {
  // Reads and the handshake may be re-sent after an ambiguous failure;
  // a batch — the one mutation kind — may exactly when it carries a
  // token for the server's dedup window.
  size_t idempotent = 0;
  for (uint8_t raw = 0; raw < 255; ++raw) {
    if (!wire::IsValidMsgKind(raw)) continue;
    wire::Request request;
    request.kind = static_cast<MsgKind>(raw);
    if (request.kind == MsgKind::kApplyBatch) {
      request.body = wire::ApplyBatchReq{};
    }
    if (wire::IsIdempotent(request)) ++idempotent;
  }
  EXPECT_EQ(idempotent, 17u);  // Handshake .. GetProvenanceStep
  wire::Request batch = Req(MsgKind::kApplyBatch, wire::ApplyBatchReq{});
  EXPECT_FALSE(wire::IsIdempotent(batch));
  std::get<wire::ApplyBatchReq>(batch.body).options.idempotency_token = "t";
  EXPECT_TRUE(wire::IsIdempotent(batch));
  EXPECT_TRUE(wire::IsIdempotent(NameRequest(MsgKind::kGetDataset, "d1")));
}

}  // namespace
}  // namespace vdg
