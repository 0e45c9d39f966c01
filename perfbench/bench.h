#ifndef VDG_PERFBENCH_BENCH_H_
#define VDG_PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/client.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "trace.h"

namespace perfbench {

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for journals of this run.
  std::string data_dir;
  /// Load threads = connections: min(nproc, 4), 1 for cms-campaign.
  int clients = 4;
};

/// Latency samples in nanoseconds. Quantiles are exact order
/// statistics, so no histogram bucketing can make two runs read alike.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  size_t count() const { return ns_.size(); }
  /// Quantile q in [0,1] over all samples, in microseconds (0 if empty).
  double QuantileUs(double q) const;
  double MeanUs() const;

 private:
  std::vector<int64_t> ns_;
};

/// Windows a measured run is split into, by the time each op started
/// (open loop: was due) or by its share of the work.
inline constexpr size_t kWindows = 10;

/// Latency samples kept per window of the measured run as well as in
/// total. A window is a tenth of the run, or one round of a workload
/// that measures in rounds; windows are added as samples arrive.
/// WindowMedianUs is the median over non-empty windows of each window's
/// quantile, so a slow host phase shorter than half the run does not
/// move it.
class WindowedSamples {
 public:
  WindowedSamples() : windows_(kWindows) {}
  void Add(size_t window, int64_t ns) {
    if (window >= windows_.size()) windows_.resize(window + 1);
    windows_[window].Add(ns);
    all_.Add(ns);
  }
  void Append(const WindowedSamples& other);
  const Samples& all() const { return all_; }
  size_t count() const { return all_.count(); }
  double WindowMedianUs(double q) const;

 private:
  std::vector<Samples> windows_;
  Samples all_;
};

/// Quantile q of `values`, interpolated between order statistics (the
/// median of an even count is the mean of the middle two); 0 if empty.
double Quantile(std::vector<double> values, double q);

/// What one workload pass measured.
struct Outcome {
  struct Metric {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;  // 0 where a sample count does not apply
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Context lines printed beside the metrics (sizes, counts, policy).
  std::vector<std::pair<std::string, std::string>> context;
  /// The time per op that tracing overhead is judged on (us): mean op
  /// latency for an open loop, wall time per op for a closed loop,
  /// wall time per campaign for sdss.
  double overhead_basis_us = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Fail(const std::string& what) { check_failures.push_back(what); }
  void Note(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
};

/// Sets `<name>_p50_us` (median of the per-window p50s) and
/// `<name>_p99_us` (over the whole run), each with its sample count.
void SetLatency(const std::string& name, const WindowedSamples& samples,
                Outcome* out);

// ---------------------------------------------------------------------
// The real stack: shards -> ShardedCatalogClient -> CatalogServer ->
// AF_UNIX -> WireCatalogClient -> ResilientCatalogClient per thread.
// ---------------------------------------------------------------------

inline constexpr int kShards = 4;
inline constexpr size_t kServerWorkers = 4;

/// Partition-mode shard catalogs behind one sharded backend. With a
/// trace, each shard and the backend are wrapped in SpanClient.
struct ShardSet {
  std::vector<std::unique_ptr<vdg::VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<vdg::CatalogClient>> shards;
  std::shared_ptr<vdg::CatalogClient> sharded;  // untraced, in-process
  std::shared_ptr<vdg::CatalogClient> backend;  // what the server calls
};

/// Opens `count` shards, in partition mode when count > 1. With an
/// empty `journal_dir` they are in-memory (NullJournal); otherwise each
/// has a FileJournal in that directory, replayed on open.
vdg::Result<ShardSet> OpenShards(int count, const std::string& journal_dir,
                                 Trace* trace);

/// Wraps existing catalogs (e.g. the planner's) as a ShardSet.
ShardSet WrapCatalogs(std::vector<vdg::VirtualDataCatalog*> catalogs,
                      Trace* trace);

/// One load thread's client ladder. Held by unique_ptr: the channel
/// decorator keeps a pointer to `residence_ns`.
struct Ladder {
  std::atomic<int64_t> residence_ns{0};
  std::shared_ptr<vdg::ResilientCatalogClient> resilient;
  std::shared_ptr<vdg::CatalogClient> top;  // resilient, maybe traced
};

vdg::Result<std::unique_ptr<Ladder>> ConnectLadder(vdg::CatalogServer* server,
                                                   uint64_t seed,
                                                   Trace* trace);

/// Shards, the server in front of them, and one ladder per load
/// thread. Members are destroyed ladders first, then server, then
/// shards.
struct Stack {
  ShardSet shards;
  std::unique_ptr<vdg::CatalogServer> server;
  std::vector<std::unique_ptr<Ladder>> ladders;
};

/// Starts a server with kServerWorkers workers over `shards.backend`
/// and connects `clients` ladders to it.
vdg::Result<std::unique_ptr<Stack>> StartStack(ShardSet shards, int clients,
                                               uint64_t seed, Trace* trace);

/// Server and client-ladder counters a traced run reports, summed over
/// every stack it measured.
struct StackCounts {
  uint64_t queue_rejections = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  void Add(const Stack& stack);
};

/// Adds the federation and catalog layer metrics of a traced run.
void ReportLayers(const Trace& trace, const StackCounts& counts, Outcome* out);

/// One hop of a lineage walk, as the output checks compare it. Ids the
/// catalog assigns (invocation ids) differ between a sharded and an
/// unsharded catalog, so only their count is kept.
struct Hop {
  std::string dataset;
  std::string producer;  // "" at the raw input
  size_t invocations = 0;
  bool operator==(const Hop&) const = default;
};

/// Walks GetProvenanceStep from `dataset` back to a raw input, following
/// each producing derivation's first input. Fails on a missing dataset,
/// a transport error, or a walk longer than 64 hops.
vdg::Status WalkLineage(vdg::CatalogClient& client, std::string dataset,
                        std::vector<Hop>* hops);

/// printf-style name from up to three numbers, e.g.
/// Name("caves.c%04zu.s%zu", chain, step).
std::string Name(const char* fmt, size_t a, size_t b = 0, size_t c = 0);

/// Runs `threads` copies of `body(thread_index)` and joins them all.
void RunThreads(int threads, const std::function<void(int)>& body);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// User + system CPU time of this process, in microseconds.
double CpuUs();

// Workloads. Each runs its whole pass (set-up, measurement, checks)
// and fills `out`; with `trace` the layer decorators are installed.
void RunCaves(const RunConfig& config, Trace* trace, Outcome* out);
void RunCms(const RunConfig& config, Trace* trace, Outcome* out);
void RunSdss(const RunConfig& config, Trace* trace, Outcome* out);

}  // namespace perfbench

#endif  // VDG_PERFBENCH_BENCH_H_
