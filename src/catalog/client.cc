#include "catalog/client.h"

#include <utility>
#include <variant>

#include "catalog/wire.h"

namespace vdg {

Result<std::vector<uint64_t>> CatalogClient::ShardVersions() {
  VDG_ASSIGN_OR_RETURN(uint64_t version, Version());
  return std::vector<uint64_t>{version};
}

Result<std::vector<CatalogChange>> CatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  if (shard != 0) {
    return Status::InvalidArgument("single-shard client has no shard " +
                                   std::to_string(shard));
  }
  return ChangesSince(since_version);
}

// ---------------------------------------------------------------------
// Typed face -> Call: pack the arguments, move the typed body out.
// ---------------------------------------------------------------------

namespace {

/// Sends one `kind` request carrying `body` through client.Call and
/// moves `field` out of the expected response body. A missing body of
/// that type is a protocol violation.
template <typename RespT, typename FieldT, typename ReqT>
Result<FieldT> RoundTrip(CatalogClient& client, wire::MsgKind kind, ReqT body,
                         FieldT RespT::*field) {
  Result<wire::Response> resp =
      client.Call(wire::Request{kind, std::move(body)});
  if (!resp.ok()) return resp.status();
  if (!resp->status.ok()) return resp->status;
  auto* typed = std::get_if<RespT>(&resp->body);
  if (typed == nullptr) {
    return Status::Internal("wire: response body missing for " +
                            std::string(wire::MsgKindName(kind)));
  }
  return std::move(typed->*field);
}

wire::NameReq NameOf(std::string_view name) {
  return wire::NameReq{std::string(name)};
}

}  // namespace

Result<wire::Response> CatalogClient::Call(const wire::Request& request) {
  return wire::Dispatch(*this, request);
}

Result<uint64_t> CatalogClient::Version() {
  return RoundTrip(*this, wire::MsgKind::kVersion, wire::EmptyReq{},
                   &wire::VersionResp::version);
}

Result<std::vector<CatalogChange>> CatalogClient::ChangesSince(
    uint64_t since_version) {
  return RoundTrip(*this, wire::MsgKind::kChangesSince,
                   wire::ChangesSinceReq{since_version},
                   &wire::ChangesResp::changes);
}

Result<Dataset> CatalogClient::GetDataset(std::string_view name) {
  return RoundTrip(*this, wire::MsgKind::kGetDataset, NameOf(name),
                   &wire::DatasetResp::dataset);
}

Result<Transformation> CatalogClient::GetTransformation(
    std::string_view name) {
  return RoundTrip(*this, wire::MsgKind::kGetTransformation, NameOf(name),
                   &wire::TransformationResp::transformation);
}

Result<Derivation> CatalogClient::GetDerivation(std::string_view name) {
  return RoundTrip(*this, wire::MsgKind::kGetDerivation, NameOf(name),
                   &wire::DerivationResp::derivation);
}

Result<bool> CatalogClient::HasDataset(std::string_view name) {
  return RoundTrip(*this, wire::MsgKind::kHasDataset, NameOf(name),
                   &wire::BoolResp::value);
}

Result<bool> CatalogClient::IsMaterialized(std::string_view dataset) {
  return RoundTrip(*this, wire::MsgKind::kIsMaterialized, NameOf(dataset),
                   &wire::BoolResp::value);
}

Result<std::string> CatalogClient::ProducerOf(std::string_view dataset) {
  return RoundTrip(*this, wire::MsgKind::kProducerOf, NameOf(dataset),
                   &wire::StringResp::value);
}

Result<std::vector<Invocation>> CatalogClient::InvocationsOf(
    std::string_view derivation) {
  return RoundTrip(*this, wire::MsgKind::kInvocationsOf, NameOf(derivation),
                   &wire::InvocationsResp::invocations);
}

Result<NameList> CatalogClient::FindDatasets(const DatasetQuery& query) {
  return RoundTrip(*this, wire::MsgKind::kFindDatasets,
                   wire::FindDatasetsReq{query}, &wire::NamesResp::names);
}

Result<NameList> CatalogClient::FindTransformations(
    const TransformationQuery& query) {
  return RoundTrip(*this, wire::MsgKind::kFindTransformations,
                   wire::FindTransformationsReq{query},
                   &wire::NamesResp::names);
}

Result<NameList> CatalogClient::FindDerivations(const DerivationQuery& query) {
  return RoundTrip(*this, wire::MsgKind::kFindDerivations,
                   wire::FindDerivationsReq{query}, &wire::NamesResp::names);
}

Result<NameList> CatalogClient::AllNames(std::string_view kind) {
  return RoundTrip(*this, wire::MsgKind::kAllNames, NameOf(kind),
                   &wire::NamesResp::names);
}

Result<bool> CatalogClient::TypeConforms(const DatasetType& type,
                                         const DatasetType& against) {
  return RoundTrip(*this, wire::MsgKind::kTypeConforms,
                   wire::TypeConformsReq{type, against},
                   &wire::BoolResp::value);
}

Result<std::vector<ObjectRecord>> CatalogClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  return RoundTrip(*this, wire::MsgKind::kBatchGet, wire::BatchGetReq{keys},
                   &wire::RecordsResp::records);
}

Result<ProvenanceStep> CatalogClient::GetProvenanceStep(
    std::string_view dataset) {
  return RoundTrip(*this, wire::MsgKind::kGetProvenanceStep, NameOf(dataset),
                   &wire::StepResp::step);
}

// ---------------------------------------------------------------------
// Single-op mutations: a one-op ApplyBatch, so routing, cache
// invalidation, idempotency tokens and dedup exist once, on the batch.
// ---------------------------------------------------------------------

namespace {

/// Applies `mutation` as a one-op batch through the virtual ApplyBatch
/// and returns the op's assigned id ("" when it assigns none). The
/// batch's first_error is the outcome, so a failed journal flush after
/// an applied op still fails the call.
Result<std::string> ApplyOne(CatalogClient& client, CatalogMutation mutation) {
  std::vector<CatalogMutation> batch;
  batch.push_back(std::move(mutation));
  VDG_ASSIGN_OR_RETURN(BatchResult result, client.ApplyBatch(batch));
  if (result.statuses.size() != 1 || result.assigned_ids.size() != 1) {
    return Status::Internal("one-op batch returned " +
                            std::to_string(result.statuses.size()) +
                            " results");
  }
  if (!result.first_error.ok()) return result.first_error;
  return std::move(result.assigned_ids[0]);
}

}  // namespace

Status CatalogClient::DefineDataset(Dataset dataset) {
  return ApplyOne(*this, CatalogMutation::DefineDataset(std::move(dataset)))
      .status();
}

Status CatalogClient::DefineTransformation(Transformation transformation) {
  return ApplyOne(*this, CatalogMutation::DefineTransformation(
                             std::move(transformation)))
      .status();
}

Status CatalogClient::DefineDerivation(Derivation derivation) {
  return ApplyOne(*this,
                  CatalogMutation::DefineDerivation(std::move(derivation)))
      .status();
}

Status CatalogClient::Annotate(std::string_view kind, std::string_view name,
                               std::string_view key, AttributeValue value) {
  return ApplyOne(*this, CatalogMutation::Annotate(
                             std::string(kind), std::string(name),
                             std::string(key), std::move(value)))
      .status();
}

Result<std::string> CatalogClient::AddReplica(Replica replica) {
  return ApplyOne(*this, CatalogMutation::AddReplica(std::move(replica)));
}

Result<std::string> CatalogClient::RecordInvocation(Invocation invocation) {
  return ApplyOne(*this,
                  CatalogMutation::RecordInvocation(std::move(invocation)));
}

Status CatalogClient::SetDatasetSize(std::string_view name,
                                     int64_t size_bytes) {
  return ApplyOne(*this,
                  CatalogMutation::SetDatasetSize(std::string(name), size_bytes))
      .status();
}

Status CatalogClient::InvalidateReplica(std::string_view id) {
  return ApplyOne(*this, CatalogMutation::InvalidateReplica(std::string(id)))
      .status();
}

Result<BatchResult> CatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  return RoundTrip(*this, wire::MsgKind::kApplyBatch,
                   wire::ApplyBatchReq{mutations, options},
                   &wire::BatchResultResp::result);
}

// ---------------------------------------------------------------------
// Call -> typed face: unpack the request, pack the outcome.
// ---------------------------------------------------------------------

namespace wire {

namespace {

template <typename BodyT, typename T>
void Fill(Response& resp, Result<T> result) {
  if (result.ok()) {
    resp.body = BodyT{std::move(*result)};
  } else {
    resp.status = result.status();
  }
}

template <typename ReqT>
const ReqT& Body(const Request& request) {
  return std::get<ReqT>(request.body);
}

}  // namespace

Response Dispatch(CatalogClient& client, const Request& request) {
  Response resp;
  resp.kind = request.kind;
  switch (request.kind) {
    case MsgKind::kHandshake:
      resp.body = HandshakeResp{client.authority(), client.read_only()};
      break;
    case MsgKind::kVersion:
      Fill<VersionResp>(resp, client.Version());
      break;
    case MsgKind::kChangesSince:
      Fill<ChangesResp>(
          resp,
          client.ChangesSince(Body<ChangesSinceReq>(request).since_version));
      break;
    case MsgKind::kGetDataset:
      Fill<DatasetResp>(resp, client.GetDataset(Body<NameReq>(request).name));
      break;
    case MsgKind::kGetTransformation:
      Fill<TransformationResp>(
          resp, client.GetTransformation(Body<NameReq>(request).name));
      break;
    case MsgKind::kGetDerivation:
      Fill<DerivationResp>(resp,
                           client.GetDerivation(Body<NameReq>(request).name));
      break;
    case MsgKind::kHasDataset:
      Fill<BoolResp>(resp, client.HasDataset(Body<NameReq>(request).name));
      break;
    case MsgKind::kIsMaterialized:
      Fill<BoolResp>(resp, client.IsMaterialized(Body<NameReq>(request).name));
      break;
    case MsgKind::kProducerOf:
      Fill<StringResp>(resp, client.ProducerOf(Body<NameReq>(request).name));
      break;
    case MsgKind::kInvocationsOf:
      Fill<InvocationsResp>(resp,
                            client.InvocationsOf(Body<NameReq>(request).name));
      break;
    case MsgKind::kFindDatasets:
      Fill<NamesResp>(
          resp, client.FindDatasets(Body<FindDatasetsReq>(request).query));
      break;
    case MsgKind::kFindTransformations:
      Fill<NamesResp>(resp, client.FindTransformations(
                                Body<FindTransformationsReq>(request).query));
      break;
    case MsgKind::kFindDerivations:
      Fill<NamesResp>(resp, client.FindDerivations(
                                Body<FindDerivationsReq>(request).query));
      break;
    case MsgKind::kAllNames:
      Fill<NamesResp>(resp, client.AllNames(Body<NameReq>(request).name));
      break;
    case MsgKind::kTypeConforms: {
      const auto& body = Body<TypeConformsReq>(request);
      Fill<BoolResp>(resp, client.TypeConforms(body.type, body.against));
      break;
    }
    case MsgKind::kBatchGet:
      Fill<RecordsResp>(resp, client.BatchGet(Body<BatchGetReq>(request).keys));
      break;
    case MsgKind::kGetProvenanceStep:
      Fill<StepResp>(resp,
                     client.GetProvenanceStep(Body<NameReq>(request).name));
      break;
    case MsgKind::kApplyBatch: {
      const auto& body = Body<ApplyBatchReq>(request);
      Fill<BatchResultResp>(resp,
                            client.ApplyBatch(body.mutations, body.options));
      break;
    }
  }
  return resp;
}

}  // namespace wire

// ---------------------------------------------------------------------
// InProcessCatalogClient
// ---------------------------------------------------------------------

namespace {

/// Snapshots one catalog object into an ObjectRecord.
ObjectRecord SnapshotObject(const VirtualDataCatalog& catalog,
                            std::string_view kind, std::string_view name) {
  ObjectRecord record;
  record.kind = std::string(kind);
  record.name = std::string(name);
  if (kind == "dataset") {
    auto ds = catalog.GetDataset(name);
    if (ds.ok()) {
      record.dataset = *std::move(ds);
      record.materialized = catalog.IsMaterialized(name);
    } else {
      record.status = ds.status();
    }
  } else if (kind == "transformation") {
    auto tr = catalog.GetTransformation(name);
    if (tr.ok()) {
      record.transformation = *std::move(tr);
    } else {
      record.status = tr.status();
    }
  } else if (kind == "derivation") {
    auto dv = catalog.GetDerivation(name);
    if (dv.ok()) {
      record.derivation = *std::move(dv);
    } else {
      record.status = dv.status();
    }
  } else {
    record.status = Status(StatusCode::kInvalidArgument,
                           "unknown object kind '" + std::string(kind) + "'");
  }
  return record;
}

}  // namespace

InProcessCatalogClient::InProcessCatalogClient(VirtualDataCatalog* catalog,
                                               bool read_only)
    : catalog_(catalog), authority_(catalog->name()), read_only_(read_only) {}

InProcessCatalogClient::InProcessCatalogClient(
    const VirtualDataCatalog* catalog)
    : catalog_(const_cast<VirtualDataCatalog*>(catalog)),
      authority_(catalog->name()),
      read_only_(true) {}

Status InProcessCatalogClient::CheckWritable() const {
  if (read_only_) {
    return Status(StatusCode::kPermissionDenied,
                  "catalog client for '" + authority_ + "' is read-only");
  }
  return Status::OK();
}

Result<uint64_t> InProcessCatalogClient::Version() {
  return catalog_->version();
}

Result<std::vector<CatalogChange>> InProcessCatalogClient::ChangesSince(
    uint64_t since_version) {
  return catalog_->ChangesSince(since_version);
}

Result<Dataset> InProcessCatalogClient::GetDataset(std::string_view name) {
  return catalog_->GetDataset(name);
}

Result<Transformation> InProcessCatalogClient::GetTransformation(
    std::string_view name) {
  return catalog_->GetTransformation(name);
}

Result<Derivation> InProcessCatalogClient::GetDerivation(
    std::string_view name) {
  return catalog_->GetDerivation(name);
}

Result<bool> InProcessCatalogClient::HasDataset(std::string_view name) {
  return catalog_->HasDataset(name);
}

Result<bool> InProcessCatalogClient::IsMaterialized(
    std::string_view dataset) {
  return catalog_->IsMaterialized(dataset);
}

Result<std::string> InProcessCatalogClient::ProducerOf(
    std::string_view dataset) {
  return catalog_->ProducerOf(dataset);
}

Result<std::vector<Invocation>> InProcessCatalogClient::InvocationsOf(
    std::string_view derivation) {
  return catalog_->InvocationsOf(derivation);
}

Result<NameList> InProcessCatalogClient::FindDatasets(
    const DatasetQuery& query) {
  return catalog_->FindDatasets(query);
}

Result<NameList> InProcessCatalogClient::FindTransformations(
    const TransformationQuery& query) {
  return catalog_->FindTransformations(query);
}

Result<NameList> InProcessCatalogClient::FindDerivations(
    const DerivationQuery& query) {
  return catalog_->FindDerivations(query);
}

Result<NameList> InProcessCatalogClient::AllNames(
    std::string_view kind) {
  if (kind == "dataset") return catalog_->AllDatasetNames();
  if (kind == "transformation") return catalog_->AllTransformationNames();
  if (kind == "derivation") return catalog_->AllDerivationNames();
  return Status(StatusCode::kInvalidArgument,
                "unknown object kind '" + std::string(kind) + "'");
}

Result<bool> InProcessCatalogClient::TypeConforms(const DatasetType& type,
                                                  const DatasetType& against) {
  return catalog_->TypeConforms(type, against);
}

Result<std::vector<ObjectRecord>> InProcessCatalogClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  std::vector<ObjectRecord> records;
  records.reserve(keys.size());
  for (const ObjectKey& key : keys) {
    records.push_back(SnapshotObject(*catalog_, key.kind, key.name));
  }
  return records;
}

Result<ProvenanceStep> InProcessCatalogClient::GetProvenanceStep(
    std::string_view dataset) {
  ProvenanceStep step;
  step.dataset = std::string(dataset);
  step.exists = catalog_->HasDataset(dataset);
  if (!step.exists) return step;
  auto producer = catalog_->ProducerOf(dataset);
  if (!producer.ok()) return step;  // raw input: no derivation behind it
  step.producer = *producer;
  auto derivation = catalog_->GetDerivation(step.producer);
  if (derivation.ok()) {
    step.derivation = *std::move(derivation);
    step.invocations = catalog_->InvocationsOf(step.producer);
  }
  return step;
}

Result<BatchResult> InProcessCatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->ApplyBatch(mutations, options);
}

}  // namespace vdg
