#ifndef VDG_PERFBENCH_TRACE_H_
#define VDG_PERFBENCH_TRACE_H_

// Benchmark-owned spans around the public interfaces of the catalog
// stack. Nothing here reaches inside the program: a CatalogClient
// decorator times calls at the client ladder's top, at the server's
// backend and at each shard, and a ClientChannel decorator times how
// long each frame stays on the other side of the socket.
//
// Client-thread spans are linked per call: one load thread owns one
// ladder and calls are synchronous, so the channel residence that
// accrues between a call's start and end belongs to that call.
// Server-worker spans cannot be linked to a request without a trace id
// on the wire, so they are summed per layer.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/client.h"
#include "federation/server.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Which shard-leg bucket a call falls in.
enum class Leg { kFind = 0, kPoint = 1, kCommit = 2 };

/// Span sums per layer for one run. Atomics: server workers and load
/// threads add concurrently.
struct LayerTotals {
  /// Zeroes every sum (after set-up, before the measured phase).
  void Reset();

  std::atomic<int64_t> client_span_ns{0};
  std::atomic<int64_t> client_residence_ns{0};
  std::atomic<int64_t> client_calls{0};
  std::atomic<int64_t> backend_ns{0};
  std::atomic<int64_t> backend_calls{0};
  std::array<std::atomic<int64_t>, 3> leg_ns{};
  std::array<std::atomic<int64_t>, 3> leg_calls{};
};

/// Keeps a few request/response frames of every message kind seen on
/// the wire, plus per-kind byte counts, so codec cost can be timed on
/// the run's real shapes after the run.
class FrameSampler {
 public:
  static constexpr size_t kSamplesPerKind = 32;

  void OnRequest(std::string_view frame);
  void OnResponse(std::string_view frame);

  struct KindCodec {
    uint64_t requests = 0;
    double encode_ns = 0;  // request + response encode, per op
    double decode_ns = 0;  // request + response decode, per op
    double bytes_per_op = 0;
  };
  /// Times wire::Encode*/Decode* on the sampled frames.
  std::map<vdg::wire::MsgKind, KindCodec> MeasureCodec() const;

 private:
  struct PerKind {
    uint64_t requests = 0;
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
    std::vector<std::string> request_frames;
    std::vector<std::string> response_frames;
  };
  mutable std::mutex mu_;
  std::map<uint8_t, PerKind> kinds_;
};

/// Everything a traced run records.
struct Trace {
  LayerTotals totals;
  FrameSampler frames;
};

/// Receives one timed call: its leg bucket, its duration, and the
/// channel residence that accrued on this ladder while it ran (0 when
/// the decorator has no residence counter).
using SpanSink = std::function<void(Leg leg, int64_t span_ns,
                                    int64_t residence_ns)>;

/// CatalogClient decorator that times every call into `inner` and hands
/// the span to `sink`. Used at the top of a load thread's ladder (with
/// that ladder's residence counter), around the server's backend, around
/// each shard, and around the executor's provenance writer.
class SpanClient final : public vdg::CatalogClient {
 public:
  SpanClient(std::shared_ptr<vdg::CatalogClient> inner, SpanSink sink,
             const std::atomic<int64_t>* residence = nullptr)
      : inner_(std::move(inner)),
        sink_(std::move(sink)),
        residence_(residence) {}

  const std::string& authority() const override { return inner_->authority(); }
  bool read_only() const override { return inner_->read_only(); }
  vdg::ShardTopology shard_topology() const override {
    return inner_->shard_topology();
  }

  vdg::Result<uint64_t> Version() override;
  vdg::Result<std::vector<vdg::CatalogChange>> ChangesSince(
      uint64_t since_version) override;
  vdg::Result<std::vector<uint64_t>> ShardVersions() override;
  vdg::Result<std::vector<vdg::CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version) override;
  vdg::Result<vdg::Dataset> GetDataset(std::string_view name) override;
  vdg::Result<vdg::Transformation> GetTransformation(
      std::string_view name) override;
  vdg::Result<vdg::Derivation> GetDerivation(std::string_view name) override;
  vdg::Result<bool> HasDataset(std::string_view name) override;
  vdg::Result<bool> IsMaterialized(std::string_view dataset) override;
  vdg::Result<std::string> ProducerOf(std::string_view dataset) override;
  vdg::Result<std::vector<vdg::Invocation>> InvocationsOf(
      std::string_view derivation) override;
  vdg::Result<vdg::NameList> FindDatasets(
      const vdg::DatasetQuery& query) override;
  vdg::Result<vdg::NameList> FindTransformations(
      const vdg::TransformationQuery& query) override;
  vdg::Result<vdg::NameList> FindDerivations(
      const vdg::DerivationQuery& query) override;
  vdg::Result<vdg::NameList> AllNames(std::string_view kind) override;
  vdg::Result<bool> TypeConforms(const vdg::DatasetType& type,
                                 const vdg::DatasetType& against) override;
  vdg::Result<std::vector<vdg::ObjectRecord>> BatchGet(
      const std::vector<vdg::ObjectKey>& keys) override;
  vdg::Result<vdg::ProvenanceStep> GetProvenanceStep(
      std::string_view dataset) override;

  vdg::Status DefineDataset(vdg::Dataset dataset) override;
  vdg::Status DefineTransformation(vdg::Transformation transformation) override;
  vdg::Status DefineDerivation(vdg::Derivation derivation) override;
  vdg::Status Annotate(std::string_view kind, std::string_view name,
                       std::string_view key,
                       vdg::AttributeValue value) override;
  vdg::Result<std::string> AddReplica(vdg::Replica replica) override;
  vdg::Result<std::string> RecordInvocation(
      vdg::Invocation invocation) override;
  vdg::Status SetDatasetSize(std::string_view name,
                             int64_t size_bytes) override;
  vdg::Status InvalidateReplica(std::string_view id) override;
  vdg::Result<vdg::BatchResult> ApplyBatch(
      const std::vector<vdg::CatalogMutation>& mutations,
      const vdg::BatchOptions& options = {}) override;

 private:
  template <typename F>
  auto Span(Leg leg, F&& call) -> decltype(call());

  std::shared_ptr<vdg::CatalogClient> inner_;
  SpanSink sink_;
  const std::atomic<int64_t>* residence_;
};

/// Sinks for the three traced layers.
SpanSink ClientSink(LayerTotals* totals);
SpanSink BackendSink(LayerTotals* totals);
SpanSink ShardSink(LayerTotals* totals);

/// ClientChannel decorator on one ladder's connection. Adds to
/// `residence` the time from sending each request frame to receiving
/// the last byte of its response, and hands frames to `sampler`.
class TracingChannel final : public vdg::ClientChannel {
 public:
  TracingChannel(std::shared_ptr<vdg::ClientChannel> inner,
                 std::atomic<int64_t>* residence, FrameSampler* sampler)
      : inner_(std::move(inner)), residence_(residence), sampler_(sampler) {}

  ptrdiff_t Send(std::string_view bytes) override;
  bool Receive(std::string* out) override;
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  std::shared_ptr<vdg::ClientChannel> inner_;
  std::atomic<int64_t>* residence_;
  FrameSampler* sampler_;
  std::atomic<int64_t> sent_ns_{0};
  std::string rx_;  // receiver-thread reassembly buffer
};

}  // namespace perfbench

#endif  // VDG_PERFBENCH_TRACE_H_
