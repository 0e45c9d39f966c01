// Builds the real catalog stack the workloads drive, and reports the
// per-layer split of a traced run.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench.h"
#include "catalog/journal.h"
#include "catalog/sharding.h"
#include "catalog/wire.h"

namespace perfbench {

using vdg::CatalogClient;
using vdg::Result;
using vdg::Status;

double Samples::QuantileUs(double q) const {
  if (ns_.empty()) return 0;
  std::vector<int64_t> sorted = ns_;
  auto rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<ptrdiff_t>(rank),
                   sorted.end());
  return static_cast<double>(sorted[rank]) / 1000.0;
}

double Samples::MeanUs() const {
  if (ns_.empty()) return 0;
  double sum = std::accumulate(ns_.begin(), ns_.end(), 0.0);
  return sum / static_cast<double>(ns_.size()) / 1000.0;
}

void WindowedSamples::Append(const WindowedSamples& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].Append(other.windows_[w]);
  }
  all_.Append(other.all_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WindowedSamples::WindowMedianUs(double q) const {
  std::vector<double> per_window;
  for (const Samples& w : windows_) {
    if (w.count() > 0) per_window.push_back(w.QuantileUs(q));
  }
  return Quantile(std::move(per_window), 0.5);
}

void SetLatency(const std::string& name, const WindowedSamples& samples,
                Outcome* out) {
  out->Set(name + "_p50_us", samples.WindowMedianUs(0.50), "us",
           samples.count());
  out->Set(name + "_p99_us", samples.all().QuantileUs(0.99), "us",
           samples.count());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuUs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

vdg::Status WalkLineage(CatalogClient& client, std::string dataset,
                        std::vector<Hop>* hops) {
  hops->clear();
  while (hops->size() < 64) {
    Result<vdg::ProvenanceStep> step = client.GetProvenanceStep(dataset);
    if (!step.ok()) return step.status();
    if (!step->exists) return Status::NotFound("lineage hop " + dataset);
    hops->push_back(Hop{dataset, step->producer, step->invocations.size()});
    if (step->producer.empty()) return Status::OK();
    if (!step->derivation.has_value()) {
      return Status::NotFound("producer record of " + dataset);
    }
    std::vector<std::string> inputs = step->derivation->InputDatasets();
    if (inputs.empty()) return Status::OK();
    dataset = inputs.front();
  }
  return Status::FailedPrecondition("lineage walk too deep");
}

std::string Name(const char* fmt, size_t a, size_t b, size_t c) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

void RunThreads(int threads, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(body, i);
  for (std::thread& t : pool) t.join();
}

namespace {

// Fronts the shard clients with the sharded backend, adding the layer
// decorators when tracing.
void Assemble(ShardSet* set, Trace* trace) {
  std::vector<std::shared_ptr<CatalogClient>> legs;
  for (const auto& shard : set->shards) {
    legs.push_back(trace == nullptr
                       ? shard
                       : std::make_shared<SpanClient>(
                             shard, ShardSink(&trace->totals)));
  }
  auto sharded = std::make_shared<vdg::ShardedCatalogClient>(legs);
  set->backend =
      trace == nullptr
          ? std::shared_ptr<CatalogClient>(sharded)
          : std::make_shared<SpanClient>(sharded, BackendSink(&trace->totals));
  // Set-up and output checks go around the decorators, so they never
  // land in a traced layer's sums. A distinct id tag keeps the replica
  // and invocation ids this second router assigns from colliding with
  // the backend's.
  vdg::ShardedClientOptions setup_options;
  setup_options.id_tag = "setup";
  set->sharded =
      std::make_shared<vdg::ShardedCatalogClient>(set->shards, setup_options);
}

}  // namespace

Result<ShardSet> OpenShards(int count, const std::string& journal_dir,
                            Trace* trace) {
  ShardSet set;
  for (int k = 0; k < count; ++k) {
    std::unique_ptr<vdg::CatalogJournal> journal;
    if (!journal_dir.empty()) {
      journal = std::make_unique<vdg::FileJournal>(
          journal_dir + "/shard" + std::to_string(k) + ".journal");
    }
    auto catalog = std::make_unique<vdg::VirtualDataCatalog>(
        "shard" + std::to_string(k) + ".perfbench.org", std::move(journal));
    if (count > 1) catalog->set_partition_mode(true);
    Status opened = catalog->Open();
    if (!opened.ok()) return opened;
    set.shards.push_back(
        std::make_shared<vdg::InProcessCatalogClient>(catalog.get()));
    set.catalogs.push_back(std::move(catalog));
  }
  Assemble(&set, trace);
  return set;
}

ShardSet WrapCatalogs(std::vector<vdg::VirtualDataCatalog*> catalogs,
                      Trace* trace) {
  ShardSet set;
  for (vdg::VirtualDataCatalog* catalog : catalogs) {
    set.shards.push_back(std::make_shared<vdg::InProcessCatalogClient>(catalog));
  }
  Assemble(&set, trace);
  return set;
}

Result<std::unique_ptr<Ladder>> ConnectLadder(vdg::CatalogServer* server,
                                              uint64_t seed, Trace* trace) {
  auto ladder = std::make_unique<Ladder>();
  std::atomic<int64_t>* residence = &ladder->residence_ns;
  vdg::ResilientEndpoint endpoint;
  endpoint.name = "catalog-server";
  endpoint.connect =
      [server, residence, trace]() -> Result<std::shared_ptr<CatalogClient>> {
    std::shared_ptr<vdg::ClientChannel> channel =
        server->Connect(/*use_socket=*/true);
    if (trace != nullptr) {
      channel = std::make_shared<TracingChannel>(std::move(channel), residence,
                                                 &trace->frames);
    }
    Result<std::shared_ptr<vdg::WireCatalogClient>> wire =
        vdg::WireCatalogClient::ConnectChannel(std::move(channel));
    if (!wire.ok()) return wire.status();
    return std::shared_ptr<CatalogClient>(*wire);
  };
  vdg::ResilientOptions options;
  options.seed = seed;
  ladder->resilient = std::make_shared<vdg::ResilientCatalogClient>(
      std::vector<vdg::ResilientEndpoint>{std::move(endpoint)}, options);
  // Dial now so the handshake is part of set-up, not the first op.
  Result<uint64_t> version = ladder->resilient->Version();
  if (!version.ok()) return version.status();
  ladder->top =
      trace == nullptr
          ? std::shared_ptr<CatalogClient>(ladder->resilient)
          : std::make_shared<SpanClient>(ladder->resilient,
                                         ClientSink(&trace->totals), residence);
  return ladder;
}

Result<std::unique_ptr<Stack>> StartStack(ShardSet shards, int clients,
                                          uint64_t seed, Trace* trace) {
  auto stack = std::make_unique<Stack>();
  stack->shards = std::move(shards);
  vdg::ServerOptions options;
  options.workers = kServerWorkers;
  stack->server =
      std::make_unique<vdg::CatalogServer>(stack->shards.backend, options);
  for (int i = 0; i < clients; ++i) {
    Result<std::unique_ptr<Ladder>> ladder = ConnectLadder(
        stack->server.get(), seed * 131 + static_cast<uint64_t>(i), trace);
    if (!ladder.ok()) return ladder.status();
    stack->ladders.push_back(std::move(*ladder));
  }
  return stack;
}

void StackCounts::Add(const Stack& stack) {
  queue_rejections += stack.server->stats().queue_rejections.load();
  for (const auto& ladder : stack.ladders) {
    vdg::ResilientStats stats = ladder->resilient->stats();
    retries += stats.retries;
    failovers += stats.failovers;
  }
}

void ReportLayers(const Trace& trace, const StackCounts& counts, Outcome* out) {
  const LayerTotals& t = trace.totals;
  double calls = std::max<double>(1.0, static_cast<double>(t.client_calls));
  auto per_call_us = [&](int64_t ns) {
    return static_cast<double>(ns) / 1000.0 / calls;
  };
  int64_t legs_ns = 0;
  int64_t legs = 0;
  for (size_t i = 0; i < t.leg_ns.size(); ++i) {
    legs_ns += t.leg_ns[i];
    legs += t.leg_calls[i];
  }
  uint64_t client_calls = static_cast<uint64_t>(t.client_calls.load());
  // The split telescopes: client self + server residence + sharding
  // self + the three shard legs = the mean client call.
  out->Note("client_calls", std::to_string(client_calls));
  out->Note("client_call_mean_us", std::to_string(per_call_us(t.client_span_ns)));
  out->Set("federation.client.self_us",
           per_call_us(t.client_span_ns - t.client_residence_ns), "us",
           client_calls);
  out->Set("federation.server.residence_us",
           per_call_us(t.client_residence_ns - t.backend_ns), "us",
           client_calls);
  out->Set("catalog.sharding.self_us", per_call_us(t.backend_ns - legs_ns),
           "us", client_calls);
  out->Set("catalog.sharding.legs_per_op",
           static_cast<double>(legs) /
               std::max<double>(1.0, static_cast<double>(t.backend_calls)),
           "count", static_cast<uint64_t>(t.backend_calls.load()));
  out->Set("catalog.find_us", per_call_us(t.leg_ns[0]), "us",
           static_cast<uint64_t>(t.leg_calls[0].load()));
  out->Set("catalog.point_read_us", per_call_us(t.leg_ns[1]), "us",
           static_cast<uint64_t>(t.leg_calls[1].load()));
  out->Set("catalog.commit_us", per_call_us(t.leg_ns[2]), "us",
           static_cast<uint64_t>(t.leg_calls[2].load()));
  out->Set("federation.server.queue_rejections",
           static_cast<double>(counts.queue_rejections), "count");
  out->Set("federation.resilient.retries", static_cast<double>(counts.retries),
           "count");
  out->Set("federation.resilient.failovers",
           static_cast<double>(counts.failovers), "count");

  for (const auto& [kind, codec] : trace.frames.MeasureCodec()) {
    std::string name(vdg::wire::MsgKindName(kind));
    out->Set("catalog.wire.encode_ns." + name, codec.encode_ns, "ns",
             codec.requests);
    out->Set("catalog.wire.decode_ns." + name, codec.decode_ns, "ns",
             codec.requests);
    out->Set("catalog.wire.bytes_per_op." + name, codec.bytes_per_op, "B",
             codec.requests);
  }
}

}  // namespace perfbench
