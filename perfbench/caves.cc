// caves-interactive: many collaborators browsing one catalog, after
// "The CAVES Project" — interactive sessions that discover datasets,
// walk their lineage back to raw inputs, read records, and annotate.
//
// Open loop: Poisson arrivals at one fixed offered rate, split evenly
// over the load threads, each drawing from the whole op mix. Each
// request is timed from the moment it was due, so a stall also charges
// the requests queued behind it on the same connection (coordinated-
// omission correction), and the generator's own lateness is reported
// as workload.lag_p99_us.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using vdg::CatalogMutation;
using vdg::Result;
using vdg::Status;

// Corpus and traffic sizes. "The CAVES Project" describes interactive
// sessions that discover, re-derive and annotate; no catalog size or
// frequency from it is cited here, so every size and share below is an
// assumption, chosen for the layer it loads (perfbench/README.md,
// "Assumed traffic"). The offered rate sits well below what the stack sustains
// on four cores: about 2000 ops/s on a quiet host, but a shared host's
// slow phases cut that several-fold, and at 1000-2000 ops/s a backlog
// then grew (lineage steps wait behind a shard's Annotate, which slows
// with the host). At 300 ops/s no backlog grows even then, so latency
// is service time plus queueing, not run length.
constexpr size_t kRawDatasets = 8000;
constexpr size_t kChains = 4000;
constexpr size_t kMaxDepth = 6;
constexpr size_t kTransformations = 6;
constexpr size_t kQueryPool = 384;
constexpr size_t kBatchKeys = 8;
constexpr double kOfferedRate = 300;  // ops/s over all load threads
constexpr int kSetupReps = 5;
const char* const kDetectors[] = {"pixel", "strip", "calo", "muon"};

// Op mix (fractions of arrivals), by class, assumed: lineage walks lead
// because each makes several GetProvenanceStep round trips (per-call
// ladder cost, InvocationsOf under the catalog lock); point reads load
// routing and the codec (2/3 GetDataset, 1/3 8-key BatchGet); discovery
// loads scatter/gather and posting lists; a small Annotate share keeps
// the commit path running under the readers.
enum class OpClass { kAnnotate = 0, kLineage = 1, kRead = 2, kDiscovery = 3 };
constexpr int kOpClasses = 4;
constexpr double kClassShare[kOpClasses] = {0.05, 0.45, 0.30, 0.20};

/// Inverse-CDF Zipf sampler over ranks [0, n).
class ZipfTable {
 public:
  ZipfTable(size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
  }
  size_t Draw(vdg::Rng& rng) const {
    double u = rng.Uniform(0.0, cdf_.back());
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Query {
  bool on_datasets = true;
  vdg::DatasetQuery datasets;
  vdg::DerivationQuery derivations;
};

/// Receives each corpus batch as it is generated. The corpus keeps only
/// names and queries, so no second copy of the catalog stays alive
/// beside the stack under test.
using BatchSink = std::function<Status(std::vector<CatalogMutation>)>;

struct Corpus {
  std::vector<std::string> datasets;  // raw + derived
  std::vector<std::string> leaves;    // deepest output of each chain
  std::vector<Query> queries;
  size_t derivations = 0;
  size_t mutations = 0;
  Status status;  // the first error the sink returned
};

// Queries use run/detector/tier/chain/transformation/reads/writes and
// names only; Annotate writes "caves.note", which no query reads, so
// the reference catalog needs no annotations to stay comparable.
Corpus MakeCorpus(uint64_t seed, const BatchSink& sink) {
  vdg::Rng rng(seed);
  Corpus corpus;
  std::vector<CatalogMutation> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    corpus.mutations += batch.size();
    if (corpus.status.ok()) corpus.status = sink(std::move(batch));
    batch.clear();
  };

  for (size_t k = 0; k < kTransformations; ++k) {
    vdg::Transformation tr(Name("caves-xf%zu", k),
                           vdg::Transformation::Kind::kSimple);
    vdg::FormalArg in;
    in.name = "in";
    in.direction = vdg::ArgDirection::kIn;
    vdg::FormalArg out;
    out.name = "out";
    out.direction = vdg::ArgDirection::kOut;
    (void)tr.AddArg(std::move(in));
    (void)tr.AddArg(std::move(out));
    tr.set_executable(Name("/caves/bin/xf%zu", k));
    batch.push_back(CatalogMutation::DefineTransformation(std::move(tr)));
  }
  flush();

  std::vector<size_t> raw_detector(kRawDatasets);
  std::vector<bool> raw_gold(kRawDatasets);
  for (size_t i = 0; i < kRawDatasets; ++i) {
    raw_detector[i] = rng.Index(4);
    raw_gold[i] = rng.Chance(0.25);
    vdg::Dataset ds;
    ds.name = Name("caves.raw.%05zu", i);
    ds.descriptor = vdg::DatasetDescriptor::File("/store/" + ds.name);
    ds.size_bytes = static_cast<int64_t>(1 << 20) + rng.UniformInt(0, 4096);
    ds.annotations.Set("run", static_cast<int64_t>(i / 16));
    ds.annotations.Set("detector", kDetectors[raw_detector[i]]);
    ds.annotations.Set("tier", raw_gold[i] ? "gold" : "std");
    vdg::Replica replica;
    replica.dataset = ds.name;
    replica.site = Name("site%zu", i % 4);
    replica.storage_element = "se0";
    replica.physical_path = "/store/" + ds.name;
    replica.size_bytes = ds.size_bytes;
    corpus.datasets.push_back(ds.name);
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
    batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
    if (batch.size() >= 2000) flush();
  }
  flush();

  for (size_t c = 0; c < kChains; ++c) {
    size_t root = rng.Index(kRawDatasets);
    size_t depth = 1 + rng.Index(kMaxDepth);
    std::string input = corpus.datasets[root];
    for (size_t s = 0; s < depth; ++s) {
      vdg::Dataset ds;
      ds.name = Name("caves.c%04zu.s%zu", c, s);
      ds.descriptor = vdg::DatasetDescriptor::File("/derived/" + ds.name);
      ds.annotations.Set("chain", static_cast<int64_t>(c));
      ds.annotations.Set("step", static_cast<int64_t>(s));
      ds.annotations.Set("detector", kDetectors[raw_detector[root]]);
      ds.annotations.Set("tier", raw_gold[root] ? "gold" : "std");
      std::string output = ds.name;
      corpus.datasets.push_back(output);
      batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));

      std::string dv_name = Name("caves-dv.c%04zu.s%zu", c, s);
      vdg::Derivation dv(dv_name,
                         Name("caves-xf%zu", (c + s) % kTransformations));
      (void)dv.AddArg(
          vdg::ActualArg::DatasetRef("in", input, vdg::ArgDirection::kIn));
      (void)dv.AddArg(
          vdg::ActualArg::DatasetRef("out", output, vdg::ArgDirection::kOut));
      batch.push_back(CatalogMutation::DefineDerivation(std::move(dv)));
      ++corpus.derivations;

      if (rng.Chance(0.5)) {  // materialized: a replica and its invocation
        vdg::Replica replica;
        replica.dataset = output;
        replica.site = Name("site%zu", (c + s) % 4);
        replica.storage_element = "se0";
        replica.physical_path = "/derived/" + output;
        size_t replica_op = batch.size();
        batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
        vdg::Invocation inv;
        inv.derivation = dv_name;
        inv.context.site = Name("site%zu", (c + s) % 4);
        inv.duration_s = 10.0 + static_cast<double>(s);
        batch.push_back(
            CatalogMutation::RecordInvocation(std::move(inv), {replica_op}));
      }
      input = output;
    }
    corpus.leaves.push_back(input);
    if (batch.size() >= 2000) flush();
  }
  flush();

  // Discovery pool: five selective and three broad shapes.
  for (size_t q = 0; q < kQueryPool; ++q) {
    Query query;
    std::string detector = kDetectors[rng.Index(4)];
    switch (rng.Index(8)) {
      case 0:  // one run: ~16 raw datasets
        query.datasets.predicates.push_back(
            {"run", vdg::PredicateOp::kEq,
             static_cast<int64_t>(rng.Index(kRawDatasets / 16))});
        break;
      case 1:  // run AND detector: a posting-list intersection
        query.datasets.predicates.push_back(
            {"detector", vdg::PredicateOp::kEq, detector});
        query.datasets.predicates.push_back(
            {"run", vdg::PredicateOp::kEq,
             static_cast<int64_t>(rng.Index(kRawDatasets / 16))});
        break;
      case 2:  // one chain's outputs
        query.datasets.predicates.push_back(
            {"chain", vdg::PredicateOp::kEq,
             static_cast<int64_t>(rng.Index(kChains))});
        break;
      case 3:  // broad: one detector, first 200 names
        query.datasets.predicates.push_back(
            {"detector", vdg::PredicateOp::kEq, detector});
        query.datasets.limit = 200;
        break;
      case 4:  // broad: gold derived data under a name prefix
        query.datasets.predicates.push_back(
            {"tier", vdg::PredicateOp::kEq, "gold"});
        query.datasets.name_prefix = Name("caves.c%zu", rng.Index(4));
        query.datasets.limit = 100;
        break;
      case 5:  // who reads this dataset
        query.on_datasets = false;
        query.derivations.reads_dataset =
            corpus.datasets[rng.Index(corpus.datasets.size())];
        break;
      case 6:  // who wrote this dataset
        query.on_datasets = false;
        query.derivations.writes_dataset =
            corpus.leaves[rng.Index(corpus.leaves.size())];
        break;
      default:  // broad: every use of one transformation, first 200
        query.on_datasets = false;
        query.derivations.transformation =
            Name("caves-xf%zu", rng.Index(kTransformations));
        query.derivations.limit = 200;
        break;
    }
    corpus.queries.push_back(std::move(query));
  }
  return corpus;
}

// A sink that applies each batch to `client` and, when `spent_ns` is
// given, adds the time spent in ApplyBatch to it.
BatchSink LoadInto(vdg::CatalogClient& client, int64_t* spent_ns = nullptr) {
  return [&client, spent_ns](std::vector<CatalogMutation> batch) -> Status {
    vdg::BatchOptions options;
    options.stop_on_error = true;
    int64_t t0 = NowNs();
    Result<vdg::BatchResult> applied = client.ApplyBatch(batch, options);
    if (spent_ns != nullptr) *spent_ns += NowNs() - t0;
    if (!applied.ok()) return applied.status();
    return applied->first_error;
  };
}

enum class OpType : uint8_t { kGet, kBatchGet, kFind, kLineage, kAnnotate };

struct Op {
  int64_t due_ns = 0;  // offset from the run's start
  OpType type = OpType::kGet;
  uint32_t target = 0;  // dataset / query / leaf index
  std::array<uint32_t, kBatchKeys> keys{};
};

// One thread's Poisson schedule: `rate` arrivals per second for
// `seconds`, drawn from the op mix.
std::vector<Op> MakeSchedule(const Corpus& corpus, uint64_t seed, double rate,
                             double seconds) {
  vdg::Rng rng(seed);
  // Reads are Zipf-skewed; annotations and lineage walks pick uniformly,
  // so which shard holds the hottest names does not decide how often a
  // writer blocks readers there (that would vary by seed).
  ZipfTable dataset_rank(corpus.datasets.size(), 0.8);
  // Popularity is independent of name order (and so of shard).
  std::vector<uint32_t> perm(corpus.datasets.size());
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  vdg::Rng perm_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  perm_rng.Shuffle(&perm);
  auto hot_dataset = [&] {
    return perm[dataset_rank.Draw(rng)];
  };
  std::vector<Op> ops;
  double t = 0;
  while (true) {
    t += rng.Exponential(1.0 / rate);
    if (t >= seconds) break;
    Op op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    double u = rng.Uniform(0.0, 1.0);
    auto cls = static_cast<OpClass>(kOpClasses - 1);
    for (int c = 0; c < kOpClasses; ++c) {
      u -= kClassShare[c];
      if (u < 0) {
        cls = static_cast<OpClass>(c);
        break;
      }
    }
    switch (cls) {
      case OpClass::kAnnotate:
        op.type = OpType::kAnnotate;
        op.target = static_cast<uint32_t>(rng.Index(corpus.datasets.size()));
        break;
      case OpClass::kLineage:
        op.type = OpType::kLineage;
        op.target = static_cast<uint32_t>(rng.Index(corpus.leaves.size()));
        break;
      case OpClass::kRead:
        if (rng.Chance(2.0 / 3.0)) {
          op.type = OpType::kGet;
          op.target = hot_dataset();
        } else {
          op.type = OpType::kBatchGet;
          for (uint32_t& key : op.keys) key = hot_dataset();
        }
        break;
      case OpClass::kDiscovery:
        op.type = OpType::kFind;
        op.target = static_cast<uint32_t>(rng.Index(corpus.queries.size()));
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Expected answers, from an unsharded in-process catalog.
struct Reference {
  std::vector<vdg::NameList> answers;      // per query
  std::vector<std::vector<Hop>> lineage;   // per leaf
};

struct ThreadResult {
  WindowedSamples read, discovery, lineage, commit;
  Samples lag, all;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t last_end_ns = 0;
  std::vector<std::string> mismatches;
};

void Mismatch(ThreadResult* r, const std::string& what) {
  if (r->mismatches.size() < 8) r->mismatches.push_back(what);
}

bool Execute(const Op& op, const Corpus& corpus, const Reference& ref,
             vdg::CatalogClient& client, uint64_t note, ThreadResult* r) {
  switch (op.type) {
    case OpType::kGet: {
      const std::string& name = corpus.datasets[op.target];
      Result<vdg::Dataset> ds = client.GetDataset(name);
      if (!ds.ok()) return false;
      if (ds->name != name) Mismatch(r, "GetDataset " + name);
      return true;
    }
    case OpType::kBatchGet: {
      std::vector<vdg::ObjectKey> keys;
      for (uint32_t k : op.keys) keys.push_back({"dataset", corpus.datasets[k]});
      Result<std::vector<vdg::ObjectRecord>> records = client.BatchGet(keys);
      if (!records.ok()) return false;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i >= records->size() || !(*records)[i].status.ok() ||
            (*records)[i].name != keys[i].name) {
          Mismatch(r, "BatchGet " + keys[i].name);
        }
      }
      return true;
    }
    case OpType::kFind: {
      const Query& q = corpus.queries[op.target];
      Result<vdg::NameList> names = q.on_datasets
                                        ? client.FindDatasets(q.datasets)
                                        : client.FindDerivations(q.derivations);
      if (!names.ok()) return false;
      if (!(*names == ref.answers[op.target])) {
        Mismatch(r, "discovery answer of query " + std::to_string(op.target));
      }
      return true;
    }
    case OpType::kLineage: {
      std::vector<Hop> hops;
      if (!WalkLineage(client, corpus.leaves[op.target], &hops).ok()) {
        return false;
      }
      if (hops != ref.lineage[op.target]) {
        Mismatch(r, "lineage of " + corpus.leaves[op.target]);
      }
      return true;
    }
    case OpType::kAnnotate:
      return client
          .Annotate("dataset", corpus.datasets[op.target], "caves.note",
                    static_cast<int64_t>(note))
          .ok();
  }
  return false;
}

}  // namespace

void RunCaves(const RunConfig& config, Trace* trace, Outcome* out) {
  // The reference: one unsharded in-process catalog, same corpus. Only
  // its answers outlive this scope, so peak_rss_mb reflects the stack
  // under test rather than a second copy of the catalog.
  Corpus corpus;
  Reference ref;
  {
    vdg::VirtualDataCatalog ref_catalog("reference.perfbench.org");
    vdg::InProcessCatalogClient ref_client(&ref_catalog);
    if (Status s = ref_catalog.Open(); !s.ok()) return out->Fail(s.ToString());
    corpus = MakeCorpus(config.seed, LoadInto(ref_client));
    if (!corpus.status.ok()) {
      return out->Fail("reference load: " + corpus.status.ToString());
    }
    for (const Query& q : corpus.queries) {
      Result<vdg::NameList> names =
          q.on_datasets ? ref_client.FindDatasets(q.datasets)
                        : ref_client.FindDerivations(q.derivations);
      if (!names.ok()) return out->Fail("reference query failed");
      ref.answers.push_back(*names);
    }
    for (const std::string& leaf : corpus.leaves) {
      std::vector<Hop> hops;
      if (!WalkLineage(ref_client, leaf, &hops).ok()) {
        return out->Fail("reference lineage of " + leaf);
      }
      ref.lineage.push_back(std::move(hops));
    }
  }

  // Set up several times; keep the last stack, report the median. Each
  // set-up generates the corpus again, batch by batch; only opening the
  // shards, applying the batches and starting the stack are timed.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    int64_t t0 = NowNs();
    Result<ShardSet> shards = OpenShards(kShards, "", trace);
    if (!shards.ok()) return out->Fail(shards.status().ToString());
    int64_t spent_ns = NowNs() - t0;
    Status loaded =
        MakeCorpus(config.seed, LoadInto(*shards->sharded, &spent_ns)).status;
    if (!loaded.ok()) return out->Fail("load: " + loaded.ToString());
    int64_t t1 = NowNs();
    Result<std::unique_ptr<Stack>> started =
        StartStack(std::move(*shards), config.clients, config.seed, trace);
    if (!started.ok()) return out->Fail(started.status().ToString());
    stack = std::move(*started);
    spent_ns += NowNs() - t1;
    setup_s.push_back(static_cast<double>(spent_ns) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());

  std::vector<std::vector<Op>> schedules;
  for (int i = 0; i < config.clients; ++i) {
    schedules.push_back(MakeSchedule(
        corpus, config.seed * 1000 + static_cast<uint64_t>(i),
        kOfferedRate / config.clients, config.seconds));
  }
  if (trace != nullptr) trace->totals.Reset();

  std::vector<ThreadResult> results(static_cast<size_t>(config.clients));
  double cpu0 = CpuUs();
  int64_t start_ns = NowNs() + 20'000'000;
  auto window_of = [&](const Op& op) {
    return std::min(kWindows - 1,
                    static_cast<size_t>(static_cast<double>(op.due_ns) *
                                        kWindows / (config.seconds * 1e9)));
  };
  RunThreads(config.clients, [&](int i) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ThreadResult& r = results[static_cast<size_t>(i)];
    vdg::CatalogClient& client = *stack->ladders[static_cast<size_t>(i)]->top;
    uint64_t note = 0;
    int64_t prev_end = start_ns;
    for (const Op& op : schedules[static_cast<size_t>(i)]) {
      int64_t due = start_ns + op.due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      int64_t begin = NowNs();
      // Generator lateness: time past the later of the due time and the
      // previous op's end. Waiting behind the thread's own previous op
      // is the stack's doing and stays in the op's latency.
      r.lag.Add(begin - std::max(due, prev_end));
      bool ok = Execute(op, corpus, ref, client, ++note, &r);
      int64_t end = NowNs();
      prev_end = end;
      ++r.attempted;
      if (!ok) {
        ++r.failed;
        continue;
      }
      size_t window = window_of(op);
      switch (op.type) {
        case OpType::kGet:
        case OpType::kBatchGet: r.read.Add(window, end - due); break;
        case OpType::kFind: r.discovery.Add(window, end - due); break;
        case OpType::kLineage: r.lineage.Add(window, end - due); break;
        case OpType::kAnnotate: r.commit.Add(window, end - due); break;
      }
      r.all.Add(end - due);
      r.last_end_ns = end;
    }
  });
  double cpu_us = CpuUs() - cpu0;

  ThreadResult total;
  for (const ThreadResult& r : results) {
    total.read.Append(r.read);
    total.discovery.Append(r.discovery);
    total.lineage.Append(r.lineage);
    total.commit.Append(r.commit);
    total.lag.Append(r.lag);
    total.all.Append(r.all);
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.last_end_ns = std::max(total.last_end_ns, r.last_end_ns);
    for (const std::string& m : r.mismatches) out->Fail(m);
  }
  double wall_s = static_cast<double>(total.last_end_ns - start_ns) / 1e9;
  uint64_t done = total.attempted - total.failed;

  out->attempted = total.attempted;
  out->failed = total.failed;
  out->Set("setup_s", setup_s[setup_s.size() / 2], "s", setup_s.size());
  out->Set("ops_per_s", static_cast<double>(done) / wall_s, "1/s", done);
  SetLatency("read", total.read, out);
  SetLatency("discovery", total.discovery, out);
  SetLatency("lineage", total.lineage, out);
  SetLatency("commit", total.commit, out);
  out->overhead_basis_us = total.all.MeanUs();

  if (trace != nullptr) {
    StackCounts counts;
    counts.Add(*stack);
    ReportLayers(*trace, counts, out);
    out->Set("workload.lag_p99_us", total.lag.QuantileUs(0.99), "us",
             total.lag.count());
    out->Set("process.cpu_us_per_op",
             cpu_us / static_cast<double>(std::max<uint64_t>(done, 1)), "us",
             done);
  }

  out->Note("loop", "open, Poisson arrivals over " +
                        std::to_string(config.clients) + " load threads");
  out->Note("offered_rate_per_s",
            std::to_string(kOfferedRate) +
                " (ops_per_s reads this unless ops fail or a backlog grows)");
  out->Note("p50s", "median of the p50s of " + std::to_string(kWindows) +
                        " equal windows of the run, by due time");
  out->Note("corpus", std::to_string(corpus.datasets.size()) + " datasets, " +
                          std::to_string(corpus.derivations) +
                          " derivations, " + std::to_string(kTransformations) +
                          " transformations, " +
                          std::to_string(corpus.mutations) + " mutations");
  out->Note("query_pool", std::to_string(corpus.queries.size()));
  out->Note("flush_policy", "none (in-memory shards, NullJournal)");
}

}  // namespace perfbench
