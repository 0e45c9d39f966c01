// FED-RPC — the cost of federation when every cross-catalog access
// pays a wire round trip, and what the batching + caching layers buy
// back. Reprises the Figure 3 provenance-chain walk and the Figure 4
// index refresh over WireCatalogClient (an in-memory pipe to a
// CatalogServer) in three modes:
//   naive   — NaiveRpcClient splits every compound request into the
//             point requests it is made of, one round trip apiece
//   batched — compound GetProvenanceStep / BatchGet / ApplyBatch, one
//             trip each
//   cached  — batched + the version-invalidated remote object cache
// plus a fault sweep: seeded connection resets, truncated frames and
// lost replies on a FaultyChannel under ResilientCatalogClient, which
// must absorb them with retries and no hard failures.
//
// The `round_trips` counter on each benchmark is trips per walk /
// refresh, counted by WireClientStats::round_trips; tools/run_bench.sh
// gates on naive/batched+cache >= 5x. Every gate counts round trips,
// not time.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "catalog/wire.h"
#include "federation/fed_provenance.h"
#include "federation/faulty_transport.h"
#include "federation/index.h"
#include "federation/registry.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"

namespace vdg {
namespace {

constexpr int kChainDepth = 24;  // FIG3 chain: d0 (raw) .. d24
constexpr int kChurn = 20;       // FIG4 distinct objects per refresh

/// A single-authority catalog holding a linear derivation chain — the
/// Figure 3 shape with every link behind one (remote) server.
VirtualDataCatalog* ChainCatalog() {
  static std::unique_ptr<VirtualDataCatalog>* cached =
      new std::unique_ptr<VirtualDataCatalog>();
  if (!*cached) *cached = bench::BuildChainCatalog("chain.org", kChainDepth);
  return cached->get();
}

/// The naive-RPC baseline: a Call interceptor over a wire client that
/// splits each compound request (BatchGet, GetProvenanceStep,
/// ApplyBatch) into point requests, one round trip apiece. Every other
/// request passes through unchanged.
class NaiveRpcClient : public CatalogClient {
 public:
  explicit NaiveRpcClient(std::shared_ptr<CatalogClient> wire)
      : wire_(std::move(wire)) {}

  const std::string& authority() const override { return wire_->authority(); }
  bool read_only() const override { return wire_->read_only(); }

  Result<wire::Response> Call(const wire::Request& request) override {
    wire::Response resp;
    resp.kind = request.kind;
    switch (request.kind) {
      case wire::MsgKind::kBatchGet: {
        std::vector<ObjectRecord> records;
        for (const ObjectKey& key :
             std::get<wire::BatchGetReq>(request.body).keys) {
          VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> one,
                               wire_->BatchGet({key}));
          records.push_back(std::move(one.front()));
        }
        resp.body = wire::RecordsResp{std::move(records)};
        return resp;
      }
      case wire::MsgKind::kGetProvenanceStep: {
        VDG_ASSIGN_OR_RETURN(
            ProvenanceStep step,
            PointStep(std::get<wire::NameReq>(request.body).name));
        resp.body = wire::StepResp{std::move(step)};
        return resp;
      }
      case wire::MsgKind::kApplyBatch: {
        const auto& body = std::get<wire::ApplyBatchReq>(request.body);
        VDG_ASSIGN_OR_RETURN(BatchResult result,
                             PointBatch(body.mutations, body.options));
        resp.body = wire::BatchResultResp{std::move(result)};
        return resp;
      }
      default:
        return wire_->Call(request);
    }
  }

 private:
  /// The four point lookups a provenance hop is made of.
  Result<ProvenanceStep> PointStep(const std::string& dataset) {
    ProvenanceStep step;
    step.dataset = dataset;
    VDG_ASSIGN_OR_RETURN(step.exists, wire_->HasDataset(dataset));
    if (!step.exists) return step;
    Result<std::string> producer = wire_->ProducerOf(dataset);
    if (!producer.ok()) {
      if (producer.status().IsNotFound()) return step;  // raw input
      return producer.status();
    }
    step.producer = *producer;
    Result<Derivation> derivation = wire_->GetDerivation(step.producer);
    if (!derivation.ok()) {
      if (derivation.status().IsNotFound()) return step;
      return derivation.status();
    }
    step.derivation = *std::move(derivation);
    VDG_ASSIGN_OR_RETURN(step.invocations,
                         wire_->InvocationsOf(step.producer));
    return step;
  }

  /// One single-op batch per mutation, with the cross-op id references
  /// resolved on the client from the ids earlier ops were assigned.
  Result<BatchResult> PointBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options) {
    BatchResult result;
    result.assigned_ids.resize(mutations.size());
    for (size_t i = 0; i < mutations.size(); ++i) {
      if (options.stop_on_error && !result.first_error.ok()) {
        result.statuses.push_back(
            Status::FailedPrecondition("batch aborted by earlier failure"));
        continue;
      }
      CatalogMutation op = mutations[i];
      auto assigned = [&](size_t pos) -> const std::string* {
        return pos < i && !result.assigned_ids[pos].empty()
                   ? &result.assigned_ids[pos]
                   : nullptr;
      };
      Status status = Status::OK();
      if (auto* annotate = std::get_if<CatalogMutation::AnnotateOp>(&op.op);
          annotate != nullptr && annotate->name_from_op.has_value()) {
        const std::string* id = assigned(*annotate->name_from_op);
        if (id == nullptr) status = Status::InvalidArgument("no assigned id");
        else annotate->name = *id;
        annotate->name_from_op.reset();
      } else if (auto* record =
                     std::get_if<CatalogMutation::RecordInvocationOp>(&op.op)) {
        for (size_t pos : record->produced_from_ops) {
          const std::string* id = assigned(pos);
          if (id == nullptr) status = Status::InvalidArgument("no assigned id");
          else record->invocation.produced_replicas.push_back(*id);
        }
        record->produced_from_ops.clear();
      }
      if (status.ok()) {
        VDG_ASSIGN_OR_RETURN(BatchResult one,
                             wire_->ApplyBatch({std::move(op)}));
        status = one.statuses.front();
        result.assigned_ids[i] = std::move(one.assigned_ids.front());
        result.version = one.version;
      }
      if (status.ok()) {
        ++result.applied;
      } else if (result.first_error.ok()) {
        result.first_error = status;
      }
      result.statuses.push_back(std::move(status));
    }
    return result;
  }

  std::shared_ptr<CatalogClient> wire_;
};

/// One catalog server over `catalog` and a wire client connected to it
/// through an in-memory pipe. `client` is the wire client itself
/// (batched) or the naive splitter over it.
struct RpcWorld {
  std::unique_ptr<CatalogServer> server;
  std::shared_ptr<WireCatalogClient> wire;
  std::shared_ptr<CatalogClient> client;

  RpcWorld(VirtualDataCatalog* catalog, bool batching) {
    ServerOptions options;
    options.workers = 1;
    server = std::make_unique<CatalogServer>(
        std::make_shared<InProcessCatalogClient>(catalog), options);
    Result<std::shared_ptr<WireCatalogClient>> connected =
        WireCatalogClient::Connect(server.get());
    if (!connected.ok()) std::abort();
    wire = *connected;
    wire->reset_stats();  // drop the handshake
    client = batching ? std::shared_ptr<CatalogClient>(wire)
                      : std::make_shared<NaiveRpcClient>(wire);
  }

  uint64_t round_trips() const { return wire->stats().round_trips; }
};

/// Walks the chain; false when the walk failed.
bool WalkChain(const CatalogRegistry& registry) {
  FederatedProvenance prov(registry);
  Result<LineageNode> lineage =
      prov.Lineage(nullptr, "vdp://chain.org/d" + std::to_string(kChainDepth));
  benchmark::DoNotOptimize(lineage);
  return lineage.ok();
}

void RunWalk(benchmark::State& state, bool batching, bool cached) {
  RpcWorld world(ChainCatalog(), batching);
  std::shared_ptr<CachingCatalogClient> cache;
  CatalogRegistry registry;
  std::shared_ptr<CatalogClient> endpoint = world.client;
  if (cached) {
    cache = std::make_shared<CachingCatalogClient>(endpoint);
    endpoint = cache;
  }
  if (!registry.RegisterClient(endpoint).ok()) std::abort();
  for (auto _ : state) {
    if (!WalkChain(registry)) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] =
      static_cast<double>(world.round_trips()) /
      static_cast<double>(state.iterations());
  if (cache != nullptr) {
    state.counters["cache_hits"] = static_cast<double>(cache->stats().hits);
  }
}

// FIG3 over naive RPC: each of the chain's links costs four point
// round trips (exists / producer / derivation / invocations).
void BM_Fig3ChainWalk_NaiveRpc(benchmark::State& state) {
  RunWalk(state, /*batching=*/false, /*cached=*/false);
}
BENCHMARK(BM_Fig3ChainWalk_NaiveRpc);

// FIG3 batched: one compound GetProvenanceStep trip per link.
void BM_Fig3ChainWalk_BatchedRpc(benchmark::State& state) {
  RunWalk(state, /*batching=*/true, /*cached=*/false);
}
BENCHMARK(BM_Fig3ChainWalk_BatchedRpc);

// FIG3 batched + cache: the first walk fills the step cache; repeat
// walks are round-trip-free until the server's version moves.
void BM_Fig3ChainWalk_CachedRpc(benchmark::State& state) {
  RunWalk(state, /*batching=*/true, /*cached=*/true);
}
BENCHMARK(BM_Fig3ChainWalk_CachedRpc);

// FIG4 refresh at churn K over one remote source. Naive: version poll
// + changelog + K point gets. Batched: version poll + changelog + ONE
// BatchGet, independent of K.
void RunRefresh(benchmark::State& state, bool batching) {
  VirtualDataCatalog* catalog = ChainCatalog();
  RpcWorld world(catalog, batching);
  FederatedIndex index("fig4-rpc");
  if (!index.AddSource(world.client).ok()) std::abort();
  if (!index.Refresh().ok()) std::abort();

  uint64_t refresh_trips = 0;
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Touch K distinct datasets so the delta carries K upserts.
    for (int i = 0; i < kChurn; ++i) {
      Status touched =
          catalog->Annotate("dataset", "d" + std::to_string(i % kChainDepth),
                            "round", round);
      if (!touched.ok()) std::abort();
    }
    ++round;
    uint64_t before = world.round_trips();
    state.ResumeTiming();
    if (!index.Refresh().ok()) std::abort();
    refresh_trips += world.round_trips() - before;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] = static_cast<double>(refresh_trips) /
                                  static_cast<double>(state.iterations());
  state.counters["churn"] = kChurn;
}

void BM_Fig4Refresh_NaiveRpc(benchmark::State& state) {
  RunRefresh(state, /*batching=*/false);
}
BENCHMARK(BM_Fig4Refresh_NaiveRpc);

void BM_Fig4Refresh_BatchedRpc(benchmark::State& state) {
  RunRefresh(state, /*batching=*/true);
}
BENCHMARK(BM_Fig4Refresh_BatchedRpc);

// Fault sweep: seeded connection resets, truncated request frames and
// lost replies on every connection of a resilient client. Every walk
// must still complete — reconnects, retries and backoff absorb the
// faults — with zero hard failures.
void BM_FaultSweep(benchmark::State& state) {
  ServerOptions server_options;
  server_options.workers = 1;
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(ChainCatalog()),
      server_options);
  FaultProfile profile;
  profile.reset_rate = 0.05;
  profile.truncate_rate = 0.02;
  profile.recv_reset_rate = 0.03;
  profile.short_write_rate = 0.05;
  auto injector = std::make_shared<FaultInjector>(profile, 17);
  ResilientEndpoint endpoint;
  endpoint.name = "chain";
  endpoint.connect =
      [&server, injector]() -> Result<std::shared_ptr<CatalogClient>> {
    VDG_ASSIGN_OR_RETURN(std::shared_ptr<WireCatalogClient> wire,
                         ConnectFaulty(&server, injector));
    return std::static_pointer_cast<CatalogClient>(wire);
  };
  ResilientOptions options;
  options.max_attempts = 10;
  options.backoff_base = std::chrono::milliseconds(1);
  options.retry_budget = std::chrono::milliseconds(10'000);
  auto resilient = std::make_shared<ResilientCatalogClient>(
      std::vector<ResilientEndpoint>{endpoint}, options);
  CatalogRegistry registry;
  if (!registry.RegisterClient(resilient).ok()) std::abort();
  uint64_t failures = 0;
  for (auto _ : state) {
    if (!WalkChain(registry)) ++failures;
  }
  ResilientStats stats = resilient->stats();
  state.SetItemsProcessed(state.iterations());
  state.counters["retries"] = static_cast<double>(stats.retries);
  state.counters["reconnects"] = static_cast<double>(stats.reconnects);
  state.counters["faults_injected"] =
      static_cast<double>(injector->stats().total());
  state.counters["failures"] = static_cast<double>(failures);
}
BENCHMARK(BM_FaultSweep);

// Executor provenance write-back over RPC: the batch an executor
// ships after running a derivation — replicas for each output, the
// dataset size updates, the invocation consuming those replica ids,
// and a retry-count annotation on the invocation. Naive transport
// sends one single-op request per op; batched ships the whole thing in
// ONE trip.
void RunWriteBack(benchmark::State& state, bool batching) {
  // Fresh chain catalog per run: write-back mutates it, and sharing
  // the cached ChainCatalog would leak state into the walk benches.
  std::unique_ptr<VirtualDataCatalog> catalog =
      bench::BuildChainCatalog("writeback.org", kChainDepth);
  RpcWorld world(catalog.get(), batching);

  constexpr int kOutputs = 3;
  uint64_t trips = 0;
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CatalogMutation> batch;
    std::vector<size_t> replica_ops;
    for (int o = 0; o < kOutputs; ++o) {
      std::string ds = "d" + std::to_string(1 + (run * kOutputs + o) %
                                                    kChainDepth);
      Replica replica;
      replica.dataset = ds;
      replica.site = "east";
      replica.storage_element = "se0";
      replica.physical_path = "/scratch/" + ds;
      replica.size_bytes = 1 << 20;
      replica_ops.push_back(batch.size());
      batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
      batch.push_back(CatalogMutation::SetDatasetSize(ds, 1 << 20));
    }
    Invocation iv;
    iv.derivation = "l" + std::to_string(1 + run % kChainDepth);
    iv.context.site = "east";
    iv.context.host = "n0";
    iv.start_time = static_cast<double>(run);
    iv.duration_s = 5;
    batch.push_back(CatalogMutation::RecordInvocation(std::move(iv),
                                                      replica_ops));
    batch.push_back(CatalogMutation::AnnotateAssigned(
        "invocation", batch.size() - 1, "recovery.attempts",
        static_cast<int64_t>(2)));
    BatchOptions options;
    options.stop_on_error = true;
    uint64_t before = world.round_trips();
    state.ResumeTiming();
    Result<BatchResult> applied = world.client->ApplyBatch(batch, options);
    if (!applied.ok() || !applied->first_error.ok()) std::abort();
    trips += world.round_trips() - before;
    ++run;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] =
      static_cast<double>(trips) / static_cast<double>(state.iterations());
  state.counters["batch_ops"] = 2 * kOutputs + 2;
}

void BM_ExecutorWriteBack_NaiveRpc(benchmark::State& state) {
  RunWriteBack(state, /*batching=*/false);
}
BENCHMARK(BM_ExecutorWriteBack_NaiveRpc);

void BM_ExecutorWriteBack_BatchedRpc(benchmark::State& state) {
  RunWriteBack(state, /*batching=*/true);
}
BENCHMARK(BM_ExecutorWriteBack_BatchedRpc);

}  // namespace
}  // namespace vdg
