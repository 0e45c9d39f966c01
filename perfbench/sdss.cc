// sdss-derive: the paper's SDSS MaxBCG campaign (Section 6) at paper
// scale — 192 stripes x 25 fields = 4992 derivations on the ~800-host
// GriPhyN testbed model. RequestPlanner plans every stripe,
// WorkflowEngine runs the plans on GridSimulator, and provenance goes
// through set_catalog_writer into a Resilient -> Wire ladder to a
// one-shard server over the planner's catalog: one bursty writer.
//
// After each campaign a collaborator audits it through the same ladder:
// every derived dataset is read, its producer discovered, and its
// lineage walked back to the raw field image.

#include <algorithm>

#include "bench.h"
#include "common/logging.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/sdss.h"
#include "workload/testbed.h"

namespace perfbench {
namespace {

using vdg::Result;
using vdg::Status;

constexpr int kStripes = 192;
constexpr int kFieldsPerStripe = 25;
constexpr int kSetupReps = 5;
// Campaigns are fixed work, so a run makes a fixed number of them:
// one per this many seconds of the --seconds budget, at least one. One
// campaign with its set-ups and audit takes about 9 s on a quiet
// 4-vCPU host. Stopping when the next one no longer fits the budget
// would make the campaign count, and with it the p50s and peak RSS,
// follow the host's speed.
constexpr double kSecondsPerCampaign = 10;

vdg::workload::SdssOptions Options(uint64_t seed) {
  vdg::workload::SdssOptions options;
  options.num_stripes = kStripes;
  options.fields_per_stripe = kFieldsPerStripe;
  options.seed = seed;
  return options;
}

/// What a campaign produced, for the output check.
struct CampaignFacts {
  size_t nodes_executed = 0;
  size_t derivations = 0;
  size_t invocations = 0;
  double sim_makespan_s = 0;
};

/// One campaign's catalog, grid and engine.
struct Campaign {
  vdg::VirtualDataCatalog catalog{"sdss.perfbench.org"};
  vdg::workload::SdssWorkload workload;
  std::unique_ptr<vdg::GridSimulator> grid;
};

Status Prepare(uint64_t seed, Campaign* c) {
  VDG_RETURN_IF_ERROR(c->catalog.Open());
  vdg::workload::SdssOptions options = Options(seed);
  Result<vdg::workload::SdssWorkload> generated =
      vdg::workload::GenerateSdss(&c->catalog, options);
  if (!generated.ok()) return generated.status();
  c->workload = std::move(*generated);
  c->grid = std::make_unique<vdg::GridSimulator>(
      vdg::workload::GriphynTestbed(), seed);
  c->grid->set_runtime_jitter(0.05);
  return vdg::workload::StageSdssInputs(c->workload, options, c->grid.get(),
                                        &c->catalog);
}

// Completions per second in each of kWindows windows of equal
// completion count. Window k runs from the last completion of window
// k-1 (`start_ns` for the first) to its own last completion, so the
// windows tile the time from `start_ns` to the last completion.
std::vector<double> WindowRates(const std::vector<int64_t>& done_ns,
                                int64_t start_ns) {
  std::vector<double> rates;
  int64_t from = start_ns;
  size_t begin = 0;
  for (size_t w = 1; w <= kWindows; ++w) {
    size_t end = done_ns.size() * w / kWindows;
    if (end <= begin) continue;
    int64_t to = done_ns[end - 1];
    if (to > from) {
      rates.push_back(static_cast<double>(end - begin) * 1e9 /
                      static_cast<double>(to - from));
    }
    from = to;
    begin = end;
  }
  return rates;
}

struct Timing {
  double plan_s = 0;
  double run_s = 0;  // RunUntilIdle wall time, write-back included
};

// Plans every stripe's cluster catalog, submits it, and runs the grid.
Result<CampaignFacts> Execute(Campaign* c,
                              std::shared_ptr<vdg::CatalogClient> writer,
                              Timing* timing) {
  vdg::CostEstimator estimator;
  vdg::RequestPlanner planner(c->catalog, c->grid->topology(), &c->grid->rls(),
                              estimator);
  vdg::ExecutorOptions eopts;
  eopts.record_provenance = true;
  vdg::WorkflowEngine engine(c->grid.get(), &c->catalog, eopts);
  if (writer != nullptr) engine.set_catalog_writer(std::move(writer));
  vdg::PlannerOptions popts;
  popts.target_site = "fermilab";

  CampaignFacts facts;
  int64_t plan_ns = 0;
  for (const std::string& clusters : c->workload.cluster_catalogs) {
    int64_t t0 = NowNs();
    Result<vdg::ExecutionPlan> plan = planner.Plan(clusters, popts);
    plan_ns += NowNs() - t0;
    if (!plan.ok()) return plan.status();
    Result<uint64_t> submitted = engine.Submit(
        *plan, [&facts](const vdg::WorkflowResult& wf) {
          facts.nodes_executed += wf.nodes_succeeded;
        });
    if (!submitted.ok()) return submitted.status();
  }
  int64_t t0 = NowNs();
  facts.sim_makespan_s = c->grid->RunUntilIdle();
  timing->run_s = static_cast<double>(NowNs() - t0) / 1e9;
  timing->plan_s = static_cast<double>(plan_ns) / 1e9;
  vdg::CatalogStats stats = c->catalog.Stats();
  facts.derivations = stats.derivations;
  facts.invocations = stats.invocations;
  return facts;
}

struct Audit {
  Samples read, discovery, lineage;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Reads, discovers and walks every derived dataset through the ladder.
void AuditCampaign(const Campaign& c, vdg::CatalogClient& client, Audit* a,
                   Outcome* out) {
  size_t mismatches = 0;
  auto timed = [&](Samples* samples, auto&& call) {
    int64_t t0 = NowNs();
    bool ok = call();
    int64_t dt = NowNs() - t0;
    ++a->attempted;
    if (ok) {
      samples->Add(dt);
    } else {
      ++a->failed;
    }
  };
  size_t f = 0;
  for (size_t s = 0; s < c.workload.stripe_fields.size(); ++s) {
    const std::vector<std::string>& fields = c.workload.stripe_fields[s];
    for (size_t i = 0; i < fields.size(); ++i, ++f) {
      const std::string& field = fields[i];
      const std::string& bcg = c.workload.bcg_datasets[f];
      timed(&a->read, [&] {
        Result<vdg::Dataset> ds = client.GetDataset(bcg);
        if (ds.ok() && ds->name != bcg) ++mismatches;
        return ds.ok();
      });
      timed(&a->discovery, [&] {
        vdg::DerivationQuery q;
        q.reads_dataset = field;
        Result<vdg::NameList> dvs = client.FindDerivations(q);
        if (dvs.ok() && dvs->size() != 1) ++mismatches;
        return dvs.ok();
      });
      timed(&a->lineage, [&] {
        std::vector<Hop> hops;
        Status walked = WalkLineage(client, bcg, &hops);
        if (walked.ok() &&
            (hops.size() != 2 || hops[0].invocations != 1 ||
             hops[1].dataset != field || !hops[1].producer.empty())) {
          ++mismatches;
        }
        return walked.ok();
      });
    }
    const std::string& clusters = c.workload.cluster_catalogs[s];
    timed(&a->lineage, [&] {
      std::vector<Hop> hops;
      Status walked = WalkLineage(client, clusters, &hops);
      if (walked.ok() && (hops.size() != 3 || hops[0].invocations != 1 ||
                          hops[2].dataset != fields.front())) {
        ++mismatches;
      }
      return walked.ok();
    });
  }
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) + " audit answers wrong");
  }
}

}  // namespace

void RunSdss(const RunConfig& config, Trace* trace, Outcome* out) {
  vdg::Logger::set_threshold(vdg::LogLevel::kError);

  std::vector<double> setup_s, campaign_s, plan_ms, grid_s, writeback_calls;
  std::vector<double> rates;  // derivations per second, per window
  WindowedSamples commit;     // write-back calls, kWindows per campaign
  Audit audit;
  double makespan = 0;
  size_t executed = 0;
  double cpu_us = 0;
  int campaigns =
      std::max(1, static_cast<int>(config.seconds / kSecondsPerCampaign));
  size_t derivation_count = 0;
  for (int n = 0; n < campaigns; ++n) {
    // Set up several times and keep the last; report the median.
    std::unique_ptr<Campaign> c;
    std::unique_ptr<Stack> stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      stack.reset();
      c.reset();
      int64_t t0 = NowNs();
      c = std::make_unique<Campaign>();
      if (Status s = Prepare(config.seed, c.get()); !s.ok()) {
        return out->Fail("set-up: " + s.ToString());
      }
      Result<std::unique_ptr<Stack>> started = StartStack(
          WrapCatalogs({&c->catalog}, trace), 1, config.seed, trace);
      if (!started.ok()) return out->Fail(started.status().ToString());
      stack = std::move(*started);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    derivation_count = c->workload.derivation_count;
    if (trace != nullptr) trace->totals.Reset();

    // The writer decorator times each provenance write-back call. Each
    // write-back is one executed derivation. A campaign's calls fall in
    // kWindows windows of equal count, so commit_p50_us is a median of
    // per-window p50s like the other workloads' p50s, and ops_per_s the
    // median of per-window derivation rates.
    Samples campaign_commits;
    std::vector<int64_t> done_ns;
    auto writer = std::make_shared<SpanClient>(
        stack->ladders[0]->top, [&](Leg, int64_t span_ns, int64_t) {
          size_t window = campaign_commits.count() * kWindows /
                          std::max<size_t>(derivation_count, 1);
          campaign_commits.Add(span_ns);
          commit.Add(static_cast<size_t>(n) * kWindows + window, span_ns);
          done_ns.push_back(NowNs());
        });
    double cpu0 = CpuUs();
    int64_t c0 = NowNs();
    Timing timing;
    Result<CampaignFacts> facts = Execute(c.get(), writer, &timing);
    double wall = static_cast<double>(NowNs() - c0) / 1e9;
    cpu_us += CpuUs() - cpu0;
    if (!facts.ok()) return out->Fail("campaign: " + facts.status().ToString());
    // Every derivation ran once and left exactly one invocation.
    if (facts->nodes_executed != derivation_count ||
        facts->invocations != derivation_count ||
        facts->derivations != derivation_count) {
      out->Fail("campaign " + std::to_string(n) + ": " +
                std::to_string(facts->nodes_executed) + " nodes executed, " +
                std::to_string(facts->invocations) + " invocations, " +
                std::to_string(facts->derivations) + " derivations; expected " +
                std::to_string(derivation_count) + " of each");
    }
    campaign_s.push_back(wall);
    plan_ms.push_back(timing.plan_s * 1e3);
    double wb_s = campaign_commits.MeanUs() * 1e-6 *
                  static_cast<double>(campaign_commits.count());
    grid_s.push_back(timing.run_s - wb_s);
    writeback_calls.push_back(static_cast<double>(campaign_commits.count()));
    std::vector<double> campaign_rates = WindowRates(done_ns, c0);
    rates.insert(rates.end(), campaign_rates.begin(), campaign_rates.end());
    makespan = facts->sim_makespan_s;
    executed += facts->nodes_executed;

    AuditCampaign(*c, *stack->ladders[0]->top, &audit, out);
    // Layer sums cover the last campaign and its audit.
    if (trace != nullptr && n + 1 == campaigns) {
      StackCounts counts;
      counts.Add(*stack);
      ReportLayers(*trace, counts, out);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  double campaign_median = median(campaign_s);

  out->attempted = executed + audit.attempted + commit.count();
  out->failed = audit.failed;
  out->Set("setup_s", median(setup_s), "s", setup_s.size());
  out->Set("ops_per_s", Quantile(rates, 0.5), "1/s", executed);
  out->Set("read_p50_us", audit.read.QuantileUs(0.50), "us", audit.read.count());
  out->Set("read_p99_us", audit.read.QuantileUs(0.99), "us", audit.read.count());
  out->Set("discovery_p50_us", audit.discovery.QuantileUs(0.50), "us",
           audit.discovery.count());
  out->Set("discovery_p99_us", audit.discovery.QuantileUs(0.99), "us",
           audit.discovery.count());
  out->Set("lineage_p50_us", audit.lineage.QuantileUs(0.50), "us",
           audit.lineage.count());
  out->Set("lineage_p99_us", audit.lineage.QuantileUs(0.99), "us",
           audit.lineage.count());
  SetLatency("commit", commit, out);
  out->overhead_basis_us = campaign_median * 1e6;

  if (trace != nullptr) {
    out->Set("planner.plan_ms", median(plan_ms), "ms", plan_ms.size());
    out->Set("executor.writeback_us", commit.all().MeanUs(), "us", commit.count());
    out->Set("executor.writeback_calls", median(writeback_calls), "count",
             writeback_calls.size());
    out->Set("grid.run_s", median(grid_s), "s", grid_s.size());
    out->Set("grid.sim_makespan_s", makespan, "s");
    out->Set("process.cpu_us_per_op",
             cpu_us / static_cast<double>(std::max<size_t>(executed, 1)), "us",
             executed);
  }

  out->Note("campaign_s", std::to_string(campaign_median) + " s median of " +
                              std::to_string(campaign_s.size()) + " campaigns");
  out->Note("corpus", std::to_string(derivation_count) +
                          " derivations (" + std::to_string(kStripes) +
                          " stripes x " + std::to_string(kFieldsPerStripe) +
                          " fields + merges), GriPhyN testbed");
  out->Note("flush_policy", "none (in-memory catalog, NullJournal)");
}

}  // namespace perfbench
