// cms-campaign: production managers registering parameter sweeps, after
// "Virtual Data in CMS Production" — campaign-scale sweeps of
// near-identical derivations (simulate -> reconstruct) whose outputs,
// replicas and invocations are written back in batches.
//
// Closed loop: each load thread submits its next batch only when the
// previous one is acknowledged. The run is a series of rounds, each on
// a fresh stack, and reports medians over rounds. Before every batch it checks that the
// batch is new (HasDataset) and how much of the sweep is registered
// (FindDerivations); after it, it walks one output's lineage back to
// its configuration. Shards are FileJournal-backed, so every batch ends
// in a journal append + flush per touched shard.

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "catalog/wire.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using vdg::CatalogMutation;
using vdg::Result;
using vdg::Status;

// "Virtual Data in CMS Production" describes campaigns as sweeps of
// near-identical derivations written back in batches; no batch or
// catalog size from it is cited here, so these are assumptions
// (perfbench/README.md, "Assumed traffic"). A batch of 4 points is 32
// mutations, enough for per-shard sub-batches on every shard; 128
// history sweeps (512 batches) give the postings and journals a backlog
// before the measured sweeps.
constexpr size_t kConfigs = 64;
constexpr size_t kPointsPerBatch = 4;
constexpr size_t kBatchesPerSweep = 4;
// Each round, every client registers this many sweeps into a fresh
// stack holding the history: fixed work per round (128 batches with
// one client, about 1 s on a quiet 4-vCPU host), so the catalog a round
// ends with, and so peak_rss_mb, does not follow the host's speed.
constexpr size_t kSweepsPerRound = 32;
constexpr size_t kMinRounds = 3;
// Production history already in the catalog when the measured sweeps
// start: earlier campaigns, registered by clients numbered from
// kHistoryClient so their names never meet the measured ones.
constexpr size_t kHistoryClient = 100;
constexpr size_t kHistorySweeps = 128;

vdg::Transformation MakeTransformation(const std::string& name,
                                       const std::string& executable) {
  vdg::Transformation tr(name, vdg::Transformation::Kind::kSimple);
  vdg::FormalArg in;
  in.name = "in";
  in.direction = vdg::ArgDirection::kIn;
  vdg::FormalArg out;
  out.name = "out";
  out.direction = vdg::ArgDirection::kOut;
  vdg::FormalArg mass;
  mass.name = "mass";
  mass.direction = vdg::ArgDirection::kNone;
  mass.default_string = "125";
  (void)tr.AddArg(std::move(in));
  (void)tr.AddArg(std::move(out));
  (void)tr.AddArg(std::move(mass));
  tr.set_executable(executable);
  return tr;
}

// Transformations and generator configurations every sweep reads.
std::vector<CatalogMutation> BaseCorpus() {
  std::vector<CatalogMutation> batch;
  batch.push_back(CatalogMutation::DefineTransformation(
      MakeTransformation("cms-simulate", "/cms/bin/cmsim")));
  batch.push_back(CatalogMutation::DefineTransformation(
      MakeTransformation("cms-reconstruct", "/cms/bin/orca")));
  for (size_t i = 0; i < kConfigs; ++i) {
    vdg::Dataset ds;
    ds.name = Name("cms.config.%02zu", i);
    ds.descriptor = vdg::DatasetDescriptor::File("/cms/cards/" + ds.name);
    ds.size_bytes = 4096;
    ds.annotations.Set("generator", i % 2 == 0 ? "pythia" : "herwig");
    vdg::Replica replica;
    replica.dataset = ds.name;
    replica.site = "cern";
    replica.storage_element = "se0";
    replica.physical_path = "/cms/cards/" + ds.name;
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
    batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
  }
  return batch;
}

struct BatchId {
  size_t client = 0;
  size_t sweep = 0;
  size_t batch = 0;
};

std::string SimOut(const BatchId& b, size_t p) {
  return Name("cms.c%zu.s%04zu.p%02zu.sim", b.client, b.sweep,
              b.batch * kPointsPerBatch + p);
}
std::string RecoOut(const BatchId& b, size_t p) {
  return Name("cms.c%zu.s%04zu.p%02zu.reco", b.client, b.sweep,
              b.batch * kPointsPerBatch + p);
}
std::string SimDv(const BatchId& b, size_t p) {
  return Name("cms-sim.c%zu.s%04zu.p%02zu", b.client, b.sweep,
              b.batch * kPointsPerBatch + p);
}
std::string RecoDv(const BatchId& b, size_t p) {
  return Name("cms-reco.c%zu.s%04zu.p%02zu", b.client, b.sweep,
              b.batch * kPointsPerBatch + p);
}
std::string SweepPrefix(const BatchId& b) {
  return Name("cms-sim.c%zu.s%04zu.", b.client, b.sweep);
}
size_t ConfigOf(const BatchId& b, uint64_t seed) {
  return static_cast<size_t>((seed * 7919 + b.client * 131 + b.sweep) %
                             kConfigs);
}

// One batch of a parameter sweep: per point, two outputs, two
// derivations differing only in the mass parameter, a replica of each
// output, and the invocation that produced it.
std::vector<CatalogMutation> MakeBatch(const BatchId& b, uint64_t seed) {
  vdg::Rng rng(seed ^ (b.client << 40) ^ (b.sweep << 8) ^ b.batch);
  std::string config = Name("cms.config.%02zu", ConfigOf(b, seed));
  std::vector<CatalogMutation> batch;
  for (size_t p = 0; p < kPointsPerBatch; ++p) {
    std::string mass = std::to_string(100 + 5 * (b.batch * kPointsPerBatch + p));
    std::string campaign = Name("c%zu-s%zu", b.client, b.sweep);
    for (int stage = 0; stage < 2; ++stage) {
      std::string out = stage == 0 ? SimOut(b, p) : RecoOut(b, p);
      std::string in = stage == 0 ? config : SimOut(b, p);
      std::string dv_name = stage == 0 ? SimDv(b, p) : RecoDv(b, p);
      vdg::Dataset ds;
      ds.name = out;
      ds.descriptor = vdg::DatasetDescriptor::File("/cms/prod/" + out);
      ds.size_bytes = 200'000'000 + rng.UniformInt(0, 1'000'000);
      ds.annotations.Set("campaign", campaign);
      ds.annotations.Set("mass", std::stod(mass));
      ds.annotations.Set("stage", stage == 0 ? "sim" : "reco");
      batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));

      vdg::Derivation dv(dv_name,
                         stage == 0 ? "cms-simulate" : "cms-reconstruct");
      (void)dv.AddArg(
          vdg::ActualArg::DatasetRef("in", in, vdg::ArgDirection::kIn));
      (void)dv.AddArg(
          vdg::ActualArg::DatasetRef("out", out, vdg::ArgDirection::kOut));
      (void)dv.AddArg(vdg::ActualArg::String("mass", mass));
      batch.push_back(CatalogMutation::DefineDerivation(std::move(dv)));

      vdg::Replica replica;
      replica.dataset = out;
      replica.site = Name("tier1-%zu", (b.client + p) % 5);
      replica.storage_element = "se0";
      replica.physical_path = "/cms/prod/" + out;
      size_t replica_op = batch.size();
      batch.push_back(CatalogMutation::AddReplica(std::move(replica)));

      vdg::Invocation inv;
      inv.derivation = dv_name;
      inv.context.site = Name("tier1-%zu", (b.client + p) % 5);
      inv.duration_s = rng.Uniform(600.0, 7200.0);
      inv.cpu_seconds = inv.duration_s * 0.9;
      batch.push_back(
          CatalogMutation::RecordInvocation(std::move(inv), {replica_op}));
    }
  }
  return batch;
}

std::vector<BatchId> History() {
  std::vector<BatchId> history;
  for (size_t sweep = 0; sweep < kHistorySweeps; ++sweep) {
    for (size_t batch = 0; batch < kBatchesPerSweep; ++batch) {
      history.push_back({kHistoryClient + sweep % 4, sweep, batch});
    }
  }
  return history;
}

std::string Token(const BatchId& b, uint64_t seed) {
  return Name("cms-%zu-c%zu-s%zu", static_cast<size_t>(seed), b.client,
              b.sweep) +
         Name("-b%zu", b.batch);
}

uint64_t JournalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (int k = 0; k < kShards; ++k) {
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(
        dir + "/shard" + std::to_string(k) + ".journal", ec);
    if (!ec) bytes += static_cast<uint64_t>(size);
  }
  return bytes;
}

// Every acknowledged batch must be fully present: both outputs, both
// derivations, one invocation each; and nothing beyond them.
void CheckAcked(vdg::CatalogClient& client, const std::vector<BatchId>& acked,
                const std::string& when, Outcome* out) {
  size_t missing = 0;
  for (const BatchId& b : acked) {
    std::vector<vdg::ObjectKey> keys;
    for (size_t p = 0; p < kPointsPerBatch; ++p) {
      keys.push_back({"dataset", SimOut(b, p)});
      keys.push_back({"dataset", RecoOut(b, p)});
      keys.push_back({"derivation", SimDv(b, p)});
      keys.push_back({"derivation", RecoDv(b, p)});
    }
    Result<std::vector<vdg::ObjectRecord>> records = client.BatchGet(keys);
    if (!records.ok()) {
      ++missing;
      continue;
    }
    for (const vdg::ObjectRecord& rec : *records) {
      if (!rec.status.ok()) ++missing;
      if (rec.kind == "dataset" && !rec.materialized) ++missing;
      if (rec.kind == "derivation") {
        Result<std::vector<vdg::Invocation>> inv = client.InvocationsOf(rec.name);
        if (!inv.ok() || inv->size() != 1) ++missing;
      }
    }
  }
  Result<vdg::NameList> dvs = client.AllNames("derivation");
  size_t expected = acked.size() * kPointsPerBatch * 2;
  if (!dvs.ok() || dvs->size() != expected) {
    out->Fail(when + ": catalog holds " +
              (dvs.ok() ? std::to_string(dvs->size()) : "?") +
              " derivations, acknowledged " + std::to_string(expected));
  }
  if (missing > 0) {
    out->Fail(when + ": " + std::to_string(missing) +
              " acknowledged objects missing or incomplete");
  }
}

struct ThreadResult {
  WindowedSamples read, discovery, lineage, commit;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<BatchId> acked;
  std::vector<std::string> mismatches;
};

void Mismatch(ThreadResult* r, const std::string& what) {
  if (r->mismatches.size() < 8) r->mismatches.push_back(what);
}

// Times one call into `samples` under `window`; returns whether it
// succeeded.
template <typename F>
bool Timed(WindowedSamples* samples, size_t window, ThreadResult* r,
           F&& call) {
  int64_t t0 = NowNs();
  bool ok = call();
  int64_t dt = NowNs() - t0;
  ++r->attempted;
  if (!ok) {
    ++r->failed;
    return false;
  }
  samples->Add(window, dt);
  return true;
}

// Registers sweeps [first_sweep, first_sweep + sweeps) of client
// `index`; every sample goes to `window` (the round).
void RunClient(vdg::CatalogClient& client, size_t index, uint64_t seed,
               size_t first_sweep, size_t sweeps, size_t window,
               ThreadResult* r) {
  for (size_t sweep = first_sweep; sweep < first_sweep + sweeps; ++sweep) {
    for (size_t batch = 0; batch < kBatchesPerSweep; ++batch) {
      BatchId id{index, sweep, batch};
      // Pre-check: the batch is new, and the sweep holds exactly the
      // points acknowledged so far.
      Timed(&r->read, window, r, [&] {
        Result<bool> has = client.HasDataset(SimOut(id, 0));
        if (has.ok() && *has) Mismatch(r, "batch already present " + SimOut(id, 0));
        return has.ok();
      });
      Timed(&r->discovery, window, r, [&] {
        vdg::DerivationQuery q;
        q.transformation = "cms-simulate";
        q.name_prefix = SweepPrefix(id);
        Result<vdg::NameList> dvs = client.FindDerivations(q);
        if (dvs.ok() && dvs->size() != batch * kPointsPerBatch) {
          Mismatch(r, "sweep " + SweepPrefix(id) + " holds " +
                          std::to_string(dvs->size()) + " derivations");
        }
        return dvs.ok();
      });
      std::vector<CatalogMutation> mutations = MakeBatch(id, seed);
      vdg::BatchOptions options;
      options.idempotency_token = Token(id, seed);
      bool acked = Timed(&r->commit, window, r, [&] {
        Result<vdg::BatchResult> applied = client.ApplyBatch(mutations, options);
        if (applied.ok() && !applied->first_error.ok()) {
          Mismatch(r, "batch " + options.idempotency_token + ": " +
                          applied->first_error.ToString());
        }
        return applied.ok() && applied->first_error.ok();
      });
      if (!acked) continue;
      r->acked.push_back(id);
      // Validation: one output's lineage reaches its configuration.
      Timed(&r->lineage, window, r, [&] {
        std::vector<Hop> hops;
        Status walked = WalkLineage(client, RecoOut(id, kPointsPerBatch - 1), &hops);
        std::vector<Hop> expected = {
            {RecoOut(id, kPointsPerBatch - 1), RecoDv(id, kPointsPerBatch - 1), 1},
            {SimOut(id, kPointsPerBatch - 1), SimDv(id, kPointsPerBatch - 1), 1},
            {Name("cms.config.%02zu", ConfigOf(id, seed)), "", 0}};
        if (walked.ok() && hops != expected) {
          Mismatch(r, "lineage of " + RecoOut(id, kPointsPerBatch - 1));
        }
        return walked.ok();
      });
    }
  }
}

// Bytes of the ApplyBatch frames of `batches`: what the clients sent.
uint64_t UserBytes(const std::vector<BatchId>& batches, uint64_t seed) {
  uint64_t bytes = 0;
  vdg::wire::Request request;
  request.kind = vdg::wire::MsgKind::kApplyBatch;
  for (const BatchId& b : batches) {
    vdg::wire::ApplyBatchReq body;
    body.mutations = MakeBatch(b, seed);
    body.options.idempotency_token = Token(b, seed);
    request.body = std::move(body);
    bytes += vdg::wire::EncodeRequestFrame(1, request).size();
  }
  return bytes;
}

}  // namespace

void RunCms(const RunConfig& config, Trace* trace, Outcome* out) {
  namespace fs = std::filesystem;
  std::string root = config.data_dir + "/cms-" + std::to_string(config.seed);
  std::error_code ec;
  fs::remove_all(root, ec);

  // Set-up loads the transformations, configurations and production
  // history as one batch.
  std::vector<CatalogMutation> base = BaseCorpus();
  std::vector<BatchId> history = History();
  for (const BatchId& b : history) {
    size_t offset = base.size();
    for (CatalogMutation& m : MakeBatch(b, config.seed)) {
      // Back-references are positions within the batch: rebase them.
      if (auto* record =
              std::get_if<CatalogMutation::RecordInvocationOp>(&m.op)) {
        for (size_t& pos : record->produced_from_ops) pos += offset;
      }
      base.push_back(std::move(m));
    }
  }
  vdg::BatchOptions base_options;
  base_options.stop_on_error = true;

  // Rounds: each sets up a fresh stack over fresh journals, runs the
  // same amount of work on it, and checks it. Every round starts from
  // the same catalog, so the rounds are alike and their medians reject
  // slow host phases; rounds continue until --seconds have passed.
  ThreadResult total;
  std::vector<double> setup_s, round_rates, reopen_s;
  StackCounts counts;
  uint64_t journal_bytes = 0;
  uint64_t user_bytes = 0;
  uint64_t done = 0;
  size_t acked_batches = 0;
  double wall_s = 0;
  double cpu_us = 0;
  if (trace != nullptr) trace->totals.Reset();
  int64_t run0 = NowNs();
  size_t round = 0;
  for (; round < kMinRounds ||
         static_cast<double>(NowNs() - run0) < config.seconds * 1e9;
       ++round) {
    std::string dir = root + "/round" + std::to_string(round);
    int64_t t0 = NowNs();
    fs::create_directories(dir, ec);
    if (ec) return out->Fail("cannot create " + dir);
    Result<ShardSet> shards = OpenShards(kShards, dir, trace);
    if (!shards.ok()) return out->Fail(shards.status().ToString());
    Result<vdg::BatchResult> loaded =
        shards->sharded->ApplyBatch(base, base_options);
    if (!loaded.ok() || !loaded->first_error.ok()) {
      return out->Fail("base corpus load failed");
    }
    Result<std::unique_ptr<Stack>> started =
        StartStack(std::move(*shards), config.clients, config.seed, trace);
    if (!started.ok()) return out->Fail(started.status().ToString());
    std::unique_ptr<Stack> stack = std::move(*started);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    uint64_t journal0 = JournalBytes(dir);

    std::vector<ThreadResult> results(static_cast<size_t>(config.clients));
    double cpu0 = CpuUs();
    int64_t start_ns = NowNs();
    RunThreads(config.clients, [&](int i) {
      RunClient(*stack->ladders[static_cast<size_t>(i)]->top,
                static_cast<size_t>(i), config.seed, round * kSweepsPerRound,
                kSweepsPerRound, round, &results[static_cast<size_t>(i)]);
    });
    double round_s = static_cast<double>(NowNs() - start_ns) / 1e9;
    cpu_us += CpuUs() - cpu0;
    wall_s += round_s;

    uint64_t round_done = 0;
    std::vector<BatchId> round_acked;
    for (ThreadResult& r : results) {
      total.read.Append(r.read);
      total.discovery.Append(r.discovery);
      total.lineage.Append(r.lineage);
      total.commit.Append(r.commit);
      total.attempted += r.attempted;
      total.failed += r.failed;
      round_done += r.attempted - r.failed;
      round_acked.insert(round_acked.end(), r.acked.begin(), r.acked.end());
      for (const std::string& m : r.mismatches) out->Fail(m);
    }
    done += round_done;
    acked_batches += round_acked.size();
    round_rates.push_back(static_cast<double>(round_done) / round_s);
    if (trace != nullptr) {
      counts.Add(*stack);
      journal_bytes += JournalBytes(dir) - journal0;
      user_bytes += UserBytes(round_acked, config.seed);
    }

    // Output checks: acknowledged batches after the round, and again
    // after reopening every shard from its journal.
    std::vector<BatchId> acked = history;
    acked.insert(acked.end(), round_acked.begin(), round_acked.end());
    std::string when = "round " + std::to_string(round);
    stack->ladders.clear();
    stack->server.reset();
    CheckAcked(*stack->shards.sharded, acked, when + " after run", out);
    stack.reset();
    int64_t reopen0 = NowNs();
    Result<ShardSet> reopened = OpenShards(kShards, dir, nullptr);
    reopen_s.push_back(static_cast<double>(NowNs() - reopen0) / 1e9);
    if (!reopened.ok()) {
      out->Fail(when + " reopen: " + reopened.status().ToString());
    } else {
      CheckAcked(*reopened->sharded, acked, when + " after reopen", out);
    }
    fs::remove_all(dir, ec);
    if (!out->check_failures.empty()) break;
  }
  fs::remove_all(root, ec);

  out->attempted = total.attempted;
  out->failed = total.failed;
  out->Set("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  out->Set("ops_per_s", Quantile(round_rates, 0.5), "1/s", done);
  SetLatency("read", total.read, out);
  SetLatency("discovery", total.discovery, out);
  SetLatency("lineage", total.lineage, out);
  SetLatency("commit", total.commit, out);
  out->overhead_basis_us =
      wall_s * 1e6 / static_cast<double>(std::max<uint64_t>(done, 1));

  if (trace != nullptr) {
    ReportLayers(*trace, counts, out);
    out->Set("process.cpu_us_per_op",
             cpu_us / static_cast<double>(std::max<uint64_t>(done, 1)), "us",
             done);
    out->Set("catalog.journal.bytes_per_user_byte",
             static_cast<double>(journal_bytes) /
                 static_cast<double>(std::max<uint64_t>(user_bytes, 1)),
             "ratio", acked_batches);
    out->Set("catalog.journal.reopen_s", Quantile(reopen_s, 0.5), "s",
             reopen_s.size());
  }

  out->Note("loop", "closed, clients = " + std::to_string(config.clients) +
                        ", " + std::to_string(round) + " rounds of " +
                        std::to_string(kSweepsPerRound) +
                        " sweeps per client, each on a fresh stack");
  out->Note("batch", std::to_string(kPointsPerBatch) + " sweep points, " +
                         std::to_string(MakeBatch({0, 0, 0}, config.seed).size()) +
                         " mutations, " + std::to_string(kBatchesPerSweep) +
                         " batches per sweep");
  out->Note("history_batches", std::to_string(history.size()));
  out->Note("acknowledged_batches", std::to_string(acked_batches));
  out->Note("p50s", "median over rounds of each round's p50; ops_per_s is "
                    "the median over rounds of each round's ops per second");
  out->Note("flush_policy",
            "FileJournal::Flush per commit = fflush to the page cache, no "
            "fsync");
}

}  // namespace perfbench
