#include "trace.h"

#include <utility>

#include "catalog/wire.h"

namespace perfbench {

namespace wire = vdg::wire;

// ---------------------------------------------------------------------
// FrameSampler
// ---------------------------------------------------------------------

void FrameSampler::OnRequest(std::string_view frame) {
  if (frame.size() < wire::kFrameHeaderBytes) return;
  std::lock_guard<std::mutex> lock(mu_);
  PerKind& k = kinds_[static_cast<uint8_t>(frame[6])];
  ++k.requests;
  k.request_bytes += frame.size();
  if (k.request_frames.size() < kSamplesPerKind) {
    k.request_frames.emplace_back(frame);
  }
}

void FrameSampler::OnResponse(std::string_view frame) {
  if (frame.size() < wire::kFrameHeaderBytes) return;
  std::lock_guard<std::mutex> lock(mu_);
  PerKind& k = kinds_[static_cast<uint8_t>(frame[6])];
  k.response_bytes += frame.size();
  if (k.response_frames.size() < kSamplesPerKind) {
    k.response_frames.emplace_back(frame);
  }
}

namespace {

// Receives the timed calls' results so they cannot be optimised away.
volatile uint64_t g_codec_sink = 0;

// Mean ns of `fn` over the samples, repeating the sample set until at
// least ~2ms have been timed so one call's clock granularity drowns.
template <typename Fn>
double MeanNs(size_t samples, Fn&& fn) {
  if (samples == 0) return 0;
  int64_t elapsed = 0;
  uint64_t calls = 0;
  while (elapsed < 2'000'000 || calls < 64) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < samples; ++i) fn(i);
    elapsed += NowNs() - t0;
    calls += samples;
  }
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

}  // namespace

std::map<wire::MsgKind, FrameSampler::KindCodec> FrameSampler::MeasureCodec()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<wire::MsgKind, KindCodec> out;
  for (const auto& [raw, k] : kinds_) {
    if (!wire::IsValidMsgKind(raw) || k.requests == 0) continue;
    auto kind = static_cast<wire::MsgKind>(raw);
    std::vector<wire::Request> requests;
    for (const std::string& f : k.request_frames) {
      auto frame = wire::DecodeFrame(f);
      if (!frame.ok()) continue;
      auto req = wire::DecodeRequest(kind, frame->payload);
      if (req.ok()) requests.push_back(std::move(*req));
    }
    std::vector<wire::Response> responses;
    for (const std::string& f : k.response_frames) {
      auto frame = wire::DecodeFrame(f);
      if (!frame.ok()) continue;
      auto resp = wire::DecodeResponse(kind, frame->payload);
      if (resp.ok()) responses.push_back(std::move(*resp));
    }
    uint64_t sink = 0;
    KindCodec codec;
    codec.requests = k.requests;
    codec.encode_ns =
        MeanNs(requests.size(),
               [&](size_t i) {
                 sink += wire::EncodeRequestFrame(i + 1, requests[i]).size();
               }) +
        MeanNs(responses.size(), [&](size_t i) {
          sink += wire::EncodeResponseFrame(i + 1, responses[i]).size();
        });
    codec.decode_ns =
        MeanNs(k.request_frames.size(),
               [&](size_t i) {
                 auto frame = wire::DecodeFrame(k.request_frames[i]);
                 if (frame.ok()) {
                   sink += wire::DecodeRequest(kind, frame->payload).ok();
                 }
               }) +
        MeanNs(k.response_frames.size(), [&](size_t i) {
          auto frame = wire::DecodeFrame(k.response_frames[i]);
          if (frame.ok()) {
            sink += wire::DecodeResponse(kind, frame->payload).ok();
          }
        });
    codec.bytes_per_op =
        static_cast<double>(k.request_bytes + k.response_bytes) /
        static_cast<double>(k.requests);
    g_codec_sink = sink;
    out[kind] = codec;
  }
  return out;
}

// ---------------------------------------------------------------------
// SpanClient and the layer sinks
// ---------------------------------------------------------------------

void LayerTotals::Reset() {
  client_span_ns = 0;
  client_residence_ns = 0;
  client_calls = 0;
  backend_ns = 0;
  backend_calls = 0;
  for (size_t i = 0; i < leg_ns.size(); ++i) {
    leg_ns[i] = 0;
    leg_calls[i] = 0;
  }
}

SpanSink ClientSink(LayerTotals* totals) {
  return [totals](Leg, int64_t span_ns, int64_t residence_ns) {
    totals->client_span_ns.fetch_add(span_ns, std::memory_order_relaxed);
    totals->client_residence_ns.fetch_add(residence_ns,
                                          std::memory_order_relaxed);
    totals->client_calls.fetch_add(1, std::memory_order_relaxed);
  };
}

SpanSink BackendSink(LayerTotals* totals) {
  return [totals](Leg, int64_t span_ns, int64_t) {
    totals->backend_ns.fetch_add(span_ns, std::memory_order_relaxed);
    totals->backend_calls.fetch_add(1, std::memory_order_relaxed);
  };
}

SpanSink ShardSink(LayerTotals* totals) {
  return [totals](Leg leg, int64_t span_ns, int64_t) {
    size_t i = static_cast<size_t>(leg);
    totals->leg_ns[i].fetch_add(span_ns, std::memory_order_relaxed);
    totals->leg_calls[i].fetch_add(1, std::memory_order_relaxed);
  };
}

template <typename F>
auto SpanClient::Span(Leg leg, F&& call) -> decltype(call()) {
  int64_t residence0 =
      residence_ ? residence_->load(std::memory_order_acquire) : 0;
  int64_t t0 = NowNs();
  auto result = call();
  int64_t span = NowNs() - t0;
  int64_t residence =
      residence_ ? residence_->load(std::memory_order_acquire) - residence0
                 : 0;
  sink_(leg, span, residence);
  return result;
}

using vdg::Result;
using vdg::Status;

Result<uint64_t> SpanClient::Version() {
  return Span(Leg::kPoint, [&] { return inner_->Version(); });
}
Result<std::vector<vdg::CatalogChange>> SpanClient::ChangesSince(
    uint64_t since_version) {
  return Span(Leg::kFind, [&] { return inner_->ChangesSince(since_version); });
}
Result<std::vector<uint64_t>> SpanClient::ShardVersions() {
  return Span(Leg::kPoint, [&] { return inner_->ShardVersions(); });
}
Result<std::vector<vdg::CatalogChange>> SpanClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  return Span(Leg::kFind, [&] {
    return inner_->ShardChangesSince(shard, since_version);
  });
}
Result<vdg::Dataset> SpanClient::GetDataset(std::string_view name) {
  return Span(Leg::kPoint, [&] { return inner_->GetDataset(name); });
}
Result<vdg::Transformation> SpanClient::GetTransformation(
    std::string_view name) {
  return Span(Leg::kPoint, [&] { return inner_->GetTransformation(name); });
}
Result<vdg::Derivation> SpanClient::GetDerivation(std::string_view name) {
  return Span(Leg::kPoint, [&] { return inner_->GetDerivation(name); });
}
Result<bool> SpanClient::HasDataset(std::string_view name) {
  return Span(Leg::kPoint, [&] { return inner_->HasDataset(name); });
}
Result<bool> SpanClient::IsMaterialized(std::string_view dataset) {
  return Span(Leg::kPoint, [&] { return inner_->IsMaterialized(dataset); });
}
Result<std::string> SpanClient::ProducerOf(std::string_view dataset) {
  return Span(Leg::kPoint, [&] { return inner_->ProducerOf(dataset); });
}
Result<std::vector<vdg::Invocation>> SpanClient::InvocationsOf(
    std::string_view derivation) {
  return Span(Leg::kPoint, [&] { return inner_->InvocationsOf(derivation); });
}
Result<vdg::NameList> SpanClient::FindDatasets(
    const vdg::DatasetQuery& query) {
  return Span(Leg::kFind, [&] { return inner_->FindDatasets(query); });
}
Result<vdg::NameList> SpanClient::FindTransformations(
    const vdg::TransformationQuery& query) {
  return Span(Leg::kFind, [&] { return inner_->FindTransformations(query); });
}
Result<vdg::NameList> SpanClient::FindDerivations(
    const vdg::DerivationQuery& query) {
  return Span(Leg::kFind, [&] { return inner_->FindDerivations(query); });
}
Result<vdg::NameList> SpanClient::AllNames(std::string_view kind) {
  return Span(Leg::kFind, [&] { return inner_->AllNames(kind); });
}
Result<bool> SpanClient::TypeConforms(const vdg::DatasetType& type,
                                         const vdg::DatasetType& against) {
  return Span(Leg::kPoint,
              [&] { return inner_->TypeConforms(type, against); });
}
Result<std::vector<vdg::ObjectRecord>> SpanClient::BatchGet(
    const std::vector<vdg::ObjectKey>& keys) {
  return Span(Leg::kPoint, [&] { return inner_->BatchGet(keys); });
}
Result<vdg::ProvenanceStep> SpanClient::GetProvenanceStep(
    std::string_view dataset) {
  return Span(Leg::kPoint,
              [&] { return inner_->GetProvenanceStep(dataset); });
}
Status SpanClient::DefineDataset(vdg::Dataset dataset) {
  return Span(Leg::kCommit,
              [&] { return inner_->DefineDataset(std::move(dataset)); });
}
Status SpanClient::DefineTransformation(vdg::Transformation transformation) {
  return Span(Leg::kCommit, [&] {
    return inner_->DefineTransformation(std::move(transformation));
  });
}
Status SpanClient::DefineDerivation(vdg::Derivation derivation) {
  return Span(Leg::kCommit,
              [&] { return inner_->DefineDerivation(std::move(derivation)); });
}
Status SpanClient::Annotate(std::string_view kind, std::string_view name,
                               std::string_view key,
                               vdg::AttributeValue value) {
  return Span(Leg::kCommit, [&] {
    return inner_->Annotate(kind, name, key, std::move(value));
  });
}
Result<std::string> SpanClient::AddReplica(vdg::Replica replica) {
  return Span(Leg::kCommit,
              [&] { return inner_->AddReplica(std::move(replica)); });
}
Result<std::string> SpanClient::RecordInvocation(
    vdg::Invocation invocation) {
  return Span(Leg::kCommit,
              [&] { return inner_->RecordInvocation(std::move(invocation)); });
}
Status SpanClient::SetDatasetSize(std::string_view name,
                                     int64_t size_bytes) {
  return Span(Leg::kCommit,
              [&] { return inner_->SetDatasetSize(name, size_bytes); });
}
Status SpanClient::InvalidateReplica(std::string_view id) {
  return Span(Leg::kCommit, [&] { return inner_->InvalidateReplica(id); });
}
Result<vdg::BatchResult> SpanClient::ApplyBatch(
    const std::vector<vdg::CatalogMutation>& mutations,
    const vdg::BatchOptions& options) {
  return Span(Leg::kCommit,
              [&] { return inner_->ApplyBatch(mutations, options); });
}

// ---------------------------------------------------------------------
// TracingChannel
// ---------------------------------------------------------------------

ptrdiff_t TracingChannel::Send(std::string_view bytes) {
  sent_ns_.store(NowNs(), std::memory_order_relaxed);
  sampler_->OnRequest(bytes);
  return inner_->Send(bytes);
}

bool TracingChannel::Receive(std::string* out) {
  size_t before = out->size();
  bool ok = inner_->Receive(out);
  int64_t now = NowNs();
  rx_.append(*out, before, std::string::npos);
  while (true) {
    vdg::Result<size_t> size = wire::FrameSize(rx_);
    if (!size.ok() || rx_.size() < *size) break;
    residence_->fetch_add(now - sent_ns_.load(std::memory_order_relaxed),
                          std::memory_order_release);
    sampler_->OnResponse(std::string_view(rx_).substr(0, *size));
    rx_.erase(0, *size);
  }
  return ok;
}

}  // namespace perfbench
