#include "catalog/catalog.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <variant>

#include "catalog/codec.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/uri.h"
#include "schema/validation.h"
#include "vdl/printer.h"

namespace vdg {

namespace {

// Removes one (key, value) pair from a multimap index.
template <typename Map, typename K, typename V>
void EraseIndexEntry(Map* map, const K& key, const V& value) {
  auto [lo, hi] = map->equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == value) {
      map->erase(it);
      return;
    }
  }
}

}  // namespace

std::string_view AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kNamePrefixRange:
      return "name-prefix-range";
    case AccessPath::kAttributeIndex:
      return "attribute-index";
    case AccessPath::kTypeIndex:
      return "type-index";
    case AccessPath::kMaterializedSet:
      return "materialized-set";
    case AccessPath::kTransformationIndex:
      return "transformation-index";
    case AccessPath::kReadsIndex:
      return "reads-index";
    case AccessPath::kWritesIndex:
      return "writes-index";
  }
  return "unknown";
}

// ---------------------------------------------------------------------
// COW posting-list maintenance
// ---------------------------------------------------------------------

void VirtualDataCatalog::PostingInsert(PostingList* list, Id id) {
  auto next = *list == nullptr ? std::make_shared<PostingBlocks>()
                               : std::make_shared<PostingBlocks>(**list);
  next->Add(id);
  *list = std::move(next);
}

void VirtualDataCatalog::PostingErase(PostingList* list, Id id) {
  if (*list == nullptr) return;
  auto next = std::make_shared<PostingBlocks>(**list);
  next->Remove(id);
  *list = std::move(next);
}

template <typename Map, typename Key>
void VirtualDataCatalog::IndexPostingInsert(Map* map, const Key& key, Id id,
                                            bool* dirty) {
  PostingInsert(&(*map)[key], id);
  *dirty = true;
}

template <typename Map, typename Key>
void VirtualDataCatalog::IndexPostingErase(Map* map, const Key& key, Id id,
                                           bool* dirty) {
  auto it = map->find(key);
  if (it == map->end()) return;
  PostingErase(&it->second, id);
  if (it->second->empty()) map->erase(it);
  *dirty = true;
}

void VirtualDataCatalog::IndexDatasetAttributes(const Dataset& dataset,
                                                Id id) {
  for (const auto& [key, value] : dataset.annotations) {
    IndexPostingInsert(
        &attr_index_,
        CatalogSnapshot::AttrKey(symbols_.Intern(key),
                                 snapshot_internal::TaggedAttrValue(value)),
        id, &dirty_.attr);
  }
}

void VirtualDataCatalog::UnindexDatasetAttributes(const Dataset& dataset,
                                                  Id id) {
  for (const auto& [key, value] : dataset.annotations) {
    IndexPostingErase(
        &attr_index_,
        CatalogSnapshot::AttrKey(symbols_.Intern(key),
                                 snapshot_internal::TaggedAttrValue(value)),
        id, &dirty_.attr);
  }
}

void VirtualDataCatalog::IndexDatasetType(const Dataset& dataset, Id id) {
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const std::string& component = dataset.type.component(dim);
    if (component.empty()) continue;
    const TypeHierarchy& h = types_.dimension(dim);
    Result<std::vector<std::string>> ancestry = h.AncestryOf(component);
    if (!ancestry.ok()) continue;  // unvalidated type: not indexable
    for (const std::string& ancestor : *ancestry) {
      if (ancestor == h.base_name()) continue;  // base matches any type
      IndexPostingInsert(
          &type_index_,
          snapshot_internal::PackTypeKey(dim, symbols_.Intern(ancestor)), id,
          &dirty_.type);
    }
  }
}

void VirtualDataCatalog::UnindexDatasetType(const Dataset& dataset, Id id) {
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const std::string& component = dataset.type.component(dim);
    if (component.empty()) continue;
    const TypeHierarchy& h = types_.dimension(dim);
    Result<std::vector<std::string>> ancestry = h.AncestryOf(component);
    if (!ancestry.ok()) continue;
    for (const std::string& ancestor : *ancestry) {
      if (ancestor == h.base_name()) continue;
      IndexPostingErase(
          &type_index_,
          snapshot_internal::PackTypeKey(dim, symbols_.Intern(ancestor)), id,
          &dirty_.type);
    }
  }
}

void VirtualDataCatalog::NoteReplicaState(const Replica* before,
                                          const Replica* after) {
  if (before != nullptr && before->valid) {
    auto it = valid_replicas_by_dataset_.find(before->dataset);
    if (it != valid_replicas_by_dataset_.end() && --it->second == 0) {
      valid_replicas_by_dataset_.erase(it);
      PostingErase(&materialized_, symbols_.Intern(before->dataset));
      dirty_.materialized = true;
    }
  }
  if (after != nullptr && after->valid) {
    if (++valid_replicas_by_dataset_[after->dataset] == 1) {
      PostingInsert(&materialized_, symbols_.Intern(after->dataset));
      dirty_.materialized = true;
    }
  }
}

// ---------------------------------------------------------------------
// Versioning, changelog, publication
// ---------------------------------------------------------------------

void VirtualDataCatalog::BumpVersion(char op, std::string_view kind,
                                     std::string_view name) {
  // One version per mutation — except inside a batch, where every
  // mutation shares the single bumped version so a ChangesSince delta
  // carries the batch whole or not at all.
  if (!in_batch_) {
    ++version_seq_;
  } else if (!batch_bumped_) {
    ++version_seq_;
    batch_bumped_ = true;
  }
  changelog_.push_back(std::make_shared<const CatalogChange>(CatalogChange{
      version_seq_, op, std::string(kind), std::string(name)}));
  dirty_.changelog = true;
  if (!in_batch_) TrimChangelogLocked();
}

void VirtualDataCatalog::TrimChangelogLocked() {
  // Evict whole version groups so a batch's entries never split; an
  // oversized batch empties the window entirely, which ChangesSince
  // reports as FailedPrecondition (the rescan fallback).
  while (changelog_.size() > changelog_capacity_) {
    uint64_t v = changelog_.front()->version;
    do {
      changelog_.pop_front();
    } while (!changelog_.empty() && changelog_.front()->version == v);
    dirty_.changelog = true;
  }
}

void VirtualDataCatalog::set_changelog_capacity(size_t capacity) {
  std::unique_lock lock(mu_);
  changelog_capacity_ = capacity;
  TrimChangelogLocked();
  PublishSnapshotLocked();
}

size_t VirtualDataCatalog::changelog_capacity() const {
  std::shared_lock lock(mu_);
  return changelog_capacity_;
}

uint64_t VirtualDataCatalog::changelog_floor() const {
  return View().changelog_floor();
}

template <typename T>
std::shared_ptr<const CatalogSnapshot::Rows<T>> VirtualDataCatalog::BuildRows(
    const ObjMap<T>& map,
    std::shared_ptr<const std::vector<uint32_t>>* row_of_id) const {
  auto rows = std::make_shared<CatalogSnapshot::Rows<T>>();
  rows->reserve(map.size());
  // Map iteration is name order, which is exactly Rows' sort order.
  for (const auto& [name, entry] : map) {
    (void)name;
    rows->push_back(CatalogSnapshot::Row<T>{symbols_.NameOf(entry.id),
                                            entry.id, entry.object});
  }
  if (row_of_id != nullptr) {
    // Inverse map: id -> row index, sized to the symbol universe. Built
    // together with the rows so the pair is always mutually consistent.
    auto inverse =
        std::make_shared<std::vector<uint32_t>>(symbols_.size(),
                                                CatalogSnapshot::kNoRow);
    for (size_t i = 0; i < rows->size(); ++i) {
      (*inverse)[(*rows)[i].id] = static_cast<uint32_t>(i);
    }
    *row_of_id = std::move(inverse);
  }
  return rows;
}

void VirtualDataCatalog::PublishSnapshotLocked() {
  std::shared_ptr<const CatalogSnapshot> prev;
  {
    std::lock_guard<std::mutex> slot(snapshot_mu_);
    prev = snapshot_;
  }
  if (prev != nullptr && prev->version == version_seq_ && !dirty_.any() &&
      !symbols_.dirty()) {
    return;  // nothing to publish
  }
  auto next = std::make_shared<CatalogSnapshot>();
  next->version = version_seq_;
  next->symbols = symbols_.Publish();
  bool fresh = prev == nullptr;
  next->types = (fresh || dirty_.types_registry)
                    ? std::make_shared<const TypeRegistry>(types_)
                    : prev->types;
  if (fresh || dirty_.datasets) {
    next->datasets = BuildRows(datasets_, &next->dataset_row_of_id);
  } else {
    next->datasets = prev->datasets;
    next->dataset_row_of_id = prev->dataset_row_of_id;
  }
  next->transformations = (fresh || dirty_.transformations)
                              ? BuildRows(transformations_, nullptr)
                              : prev->transformations;
  if (fresh || dirty_.derivations) {
    next->derivations = BuildRows(derivations_, &next->derivation_row_of_id);
  } else {
    next->derivations = prev->derivations;
    next->derivation_row_of_id = prev->derivation_row_of_id;
  }
  next->attr_index =
      (fresh || dirty_.attr)
          ? std::make_shared<
                const std::map<CatalogSnapshot::AttrKey, PostingList>>(
                attr_index_)
          : prev->attr_index;
  next->type_index =
      (fresh || dirty_.type)
          ? std::make_shared<const std::map<uint64_t, PostingList>>(
                type_index_)
          : prev->type_index;
  next->consumers =
      (fresh || dirty_.consumers)
          ? std::make_shared<const std::map<Id, PostingList>>(consumers_)
          : prev->consumers;
  next->producers =
      (fresh || dirty_.producers)
          ? std::make_shared<const std::map<Id, PostingList>>(producers_)
          : prev->producers;
  next->by_transformation =
      (fresh || dirty_.by_transformation)
          ? std::make_shared<const std::map<Id, PostingList>>(
                by_transformation_)
          : prev->by_transformation;
  next->by_bare_transformation =
      (fresh || dirty_.by_bare)
          ? std::make_shared<const std::map<Id, PostingList>>(
                by_bare_transformation_)
          : prev->by_bare_transformation;
  next->materialized = materialized_;
  if (fresh || dirty_.changelog) {
    auto log = std::make_shared<
        std::vector<std::shared_ptr<const CatalogChange>>>();
    log->assign(changelog_.begin(), changelog_.end());
    next->changelog = std::move(log);
  } else {
    next->changelog = prev->changelog;
  }
  dirty_ = Dirty{};
  // The snapshot pointer first, the polled version last: a version()
  // observation always has its snapshot visible.
  {
    std::lock_guard<std::mutex> slot(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  version_.store(version_seq_, std::memory_order_release);
}

Status VirtualDataCatalog::CommitLocked(Status op_status) {
  Status flushed = journal_->Flush();
  PublishSnapshotLocked();
  if (!op_status.ok()) return op_status;
  return flushed;
}

Result<std::string> VirtualDataCatalog::CommitLocked(
    Result<std::string> op_result) {
  Status flushed = journal_->Flush();
  PublishSnapshotLocked();
  if (!op_result.ok()) return op_result;
  if (!flushed.ok()) return flushed;
  return op_result;
}

Status VirtualDataCatalog::SyncJournal() {
  // Exclusive: journal backends are unsynchronized and rely on the
  // catalog lock for mutual exclusion with Append/Rewrite.
  std::unique_lock lock(mu_);
  return journal_->Sync();
}

Status VirtualDataCatalog::CompactJournal() {
  std::unique_lock lock(mu_);
  std::vector<std::string> records = CurrentStateRecordsLocked();
  Status rewritten = journal_->Rewrite(records);
  if (rewritten.ok() && journal_->persistent()) {
    // The journal now starts over with the compacted state; re-anchor
    // the tail-replay counters. Flat snapshots saved before compaction
    // no longer match the chain and fall back to full replay.
    journal_records_ = records.size();
    journal_chain_crc_ = 0;
    for (const std::string& r : records) {
      journal_chain_crc_ = Crc32Extend(journal_chain_crc_, r);
    }
  }
  return rewritten;
}

bool VirtualDataCatalog::TypeConforms(const DatasetType& type,
                                      const DatasetType& against) const {
  return View().types().Conforms(type, against);
}

bool VirtualDataCatalog::HasType(TypeDimension dim,
                                 std::string_view type_name) const {
  return View().types().dimension(dim).Contains(type_name);
}

TypeRegistry VirtualDataCatalog::TypesSnapshot() const {
  return View().types();
}

Result<std::vector<CatalogChange>> VirtualDataCatalog::ChangesSince(
    uint64_t since_version) const {
  return View().ChangesSince(since_version);
}

VirtualDataCatalog::VirtualDataCatalog(
    std::string name, std::unique_ptr<CatalogJournal> journal)
    : name_(std::move(name)),
      journal_(journal ? std::move(journal) : std::make_unique<NullJournal>()),
      materialized_(std::make_shared<const PostingBlocks>()) {
  // Publish the empty version-0 snapshot so View() never sees null.
  PublishSnapshotLocked();
}

Status VirtualDataCatalog::Open() {
  std::unique_lock lock(mu_);
  if (opened_) return Status::OK();
  opened_ = true;
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> records, journal_->ReadAll());
  replaying_ = true;
  for (const std::string& record : records) {
    Status s = ApplyRecord(record);
    if (!s.ok()) {
      replaying_ = false;
      PublishSnapshotLocked();
      return Status::IoError("journal replay failed on record '" + record +
                             "': " + s.ToString());
    }
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, record);
  }
  replaying_ = false;
  PublishSnapshotLocked();
  return Status::OK();
}

Status VirtualDataCatalog::Journal(const std::string& record) {
  if (replaying_) return Status::OK();
  Status appended = journal_->Append(record);
  if (appended.ok() && journal_->persistent()) {
    // Tracks how far into the durable journal the in-memory state has
    // advanced: flat snapshots anchor their journal-tail replay here
    // (count + running CRC over the record chain).
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, record);
  }
  return appended;
}

const DatasetType* VirtualDataCatalog::LookupDatasetType(
    std::string_view name) const {
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second.object->type;
}

// ---------------------------------------------------------------------
// Definition
// ---------------------------------------------------------------------

Status VirtualDataCatalog::DefineType(TypeDimension dim,
                                      std::string_view type_name,
                                      std::string_view parent) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineTypeLocked(dim, type_name, parent));
}

Status VirtualDataCatalog::DefineTypeLocked(TypeDimension dim,
                                            std::string_view type_name,
                                            std::string_view parent) {
  Status defined = types_.Define(dim, type_name, parent);
  if (defined.IsAlreadyExists() && replaying_) return Status::OK();
  VDG_RETURN_IF_ERROR(defined);
  symbols_.Intern(type_name);
  dirty_.types_registry = true;
  BumpVersion('U', "type", type_name);
  return Journal(codec::JoinRecord(
      {"TY", std::to_string(static_cast<int>(dim)), std::string(type_name),
       std::string(parent)}));
}

Status VirtualDataCatalog::LoadTypePreset() {
  std::unique_lock lock(mu_);
  // Route through a scratch registry to obtain the preset's edges,
  // then journal each through DefineType. The whole preset commits as
  // one batch: one version bump, one journal flush.
  TypeRegistry preset;
  VDG_RETURN_IF_ERROR(preset.LoadAppendixCPreset());
  in_batch_ = true;
  batch_bumped_ = false;
  Status result = Status::OK();
  for (int d = 0; d < kNumTypeDimensions && result.ok(); ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const TypeHierarchy& h = preset.dimension(dim);
    // Parents must be defined before children: insert by depth.
    std::vector<std::pair<int, std::string>> by_depth;
    for (std::string_view name : h.AllTypes()) {
      Result<int> depth = h.DepthOf(name);
      by_depth.emplace_back(depth.ok() ? *depth : 0, std::string(name));
    }
    std::sort(by_depth.begin(), by_depth.end());
    for (const auto& [depth, name] : by_depth) {
      (void)depth;
      Result<std::string> parent = h.ParentOf(name);
      if (!parent.ok()) {
        result = parent.status();
        break;
      }
      if (types_.dimension(dim).Contains(name)) continue;  // idempotent
      result = DefineTypeLocked(dim, name, *parent);
      if (!result.ok()) break;
    }
  }
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(result));
}

Status VirtualDataCatalog::DefineDataset(Dataset dataset) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineDatasetLocked(std::move(dataset)));
}

Status VirtualDataCatalog::DefineDatasetLocked(Dataset dataset) {
  VDG_RETURN_IF_ERROR(dataset.Validate());
  VDG_RETURN_IF_ERROR(types_.Validate(dataset.type));
  auto it = datasets_.find(dataset.name);
  if (it != datasets_.end()) {
    if (!replaying_) {
      return Status::AlreadyExists("dataset already defined: " +
                                   dataset.name);
    }
    // Replay upsert: drop the superseded object's index entries.
    UnindexDatasetAttributes(*it->second.object, it->second.id);
    UnindexDatasetType(*it->second.object, it->second.id);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(dataset)));
  Id id = symbols_.Intern(dataset.name);
  IndexDatasetAttributes(dataset, id);
  IndexDatasetType(dataset, id);
  BumpVersion('U', "dataset", dataset.name);
  dirty_.datasets = true;
  std::string name = dataset.name;
  datasets_.insert_or_assign(
      std::move(name),
      ObjEntry<Dataset>{id, std::make_shared<const Dataset>(
                                std::move(dataset))});
  return Status::OK();
}

Status VirtualDataCatalog::DefineTransformation(Transformation transformation) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineTransformationLocked(std::move(transformation)));
}

Status VirtualDataCatalog::DefineTransformationLocked(
    Transformation transformation) {
  VDG_RETURN_IF_ERROR(transformation.Validate());
  for (const FormalArg& arg : transformation.args()) {
    for (const DatasetType& type : arg.types) {
      VDG_RETURN_IF_ERROR(types_.Validate(type));
    }
  }
  auto it = transformations_.find(transformation.name());
  if (it != transformations_.end() && !replaying_) {
    return Status::AlreadyExists("transformation already defined: " +
                                 transformation.name());
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeTransformation(transformation)));
  Id id = symbols_.Intern(transformation.name());
  BumpVersion('U', "transformation", transformation.name());
  dirty_.transformations = true;
  std::string name = transformation.name();
  transformations_.insert_or_assign(
      std::move(name),
      ObjEntry<Transformation>{id, std::make_shared<const Transformation>(
                                       std::move(transformation))});
  return Status::OK();
}

Status VirtualDataCatalog::DefineDerivation(Derivation derivation) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineDerivationLocked(std::move(derivation)));
}

Status VirtualDataCatalog::DefineDerivationLocked(Derivation derivation) {
  VDG_RETURN_IF_ERROR(derivation.Validate());
  if (derivations_.count(derivation.name()) != 0 && !replaying_) {
    return Status::AlreadyExists("derivation already defined: " +
                                 derivation.name());
  }

  // Type-check against the transformation when it is locally resolvable.
  const std::string& tr_name = derivation.transformation();
  const Transformation* tr = nullptr;
  if (!IsVdpUri(tr_name)) {
    auto it = transformations_.find(tr_name);
    if (it == transformations_.end()) {
      return Status::NotFound("derivation " + derivation.name() +
                              " references unknown transformation " +
                              tr_name);
    }
    tr = it->second.object.get();
    ValidationPolicy policy;
    policy.allow_external_inputs = partition_mode_;
    VDG_RETURN_IF_ERROR(ValidateDerivationAgainst(
        derivation, *tr, types_,
        [this](std::string_view ds) { return LookupDatasetType(ds); },
        policy));
  }

  // Auto-define missing output datasets as virtual data, typed from
  // the formal they bind (first union element when present). In
  // partition mode a missing output is owned by another shard: the
  // sharded client pre-creates it on its home shard, so it is skipped
  // here rather than misplaced on this one.
  for (const ActualArg& arg : derivation.args()) {
    if (!arg.is_dataset() || !DirectionWrites(*arg.direction)) continue;
    if (IsVdpUri(*arg.dataset)) continue;  // lives in another catalog
    auto existing = datasets_.find(*arg.dataset);
    if (existing == datasets_.end()) {
      if (partition_mode_) continue;
      Dataset out;
      out.name = *arg.dataset;
      out.producer = derivation.name();
      if (tr != nullptr) {
        const FormalArg* formal = tr->FindArg(arg.formal);
        if (formal != nullptr && !formal->types.empty()) {
          out.type = formal->types.front();
        }
      }
      out.descriptor = DatasetDescriptor::File(out.name);
      VDG_RETURN_IF_ERROR(DefineDatasetLocked(std::move(out)));
    } else if (existing->second.object->producer.empty()) {
      Dataset updated = *existing->second.object;
      updated.producer = derivation.name();
      VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(updated)));
      existing->second.object =
          std::make_shared<const Dataset>(std::move(updated));
      dirty_.datasets = true;
    } else if (existing->second.object->producer != derivation.name() &&
               !replaying_) {
      // A compound derivation's expansion children (named
      // "<parent>.cK" by the planner) legitimately re-produce the
      // parent's outputs; the parent remains the recorded producer.
      bool expansion_child = StartsWith(
          derivation.name(), existing->second.object->producer + ".");
      if (!expansion_child) {
        return Status::AlreadyExists(
            "dataset " + *arg.dataset +
            " is already produced by derivation " +
            existing->second.object->producer +
            " (a dataset has exactly one producing recipe)");
      }
    }
  }

  VDG_RETURN_IF_ERROR(Journal(codec::EncodeDerivation(derivation)));

  // Index maintenance.
  Id dv_id = symbols_.Intern(derivation.name());
  derivations_by_signature_.emplace(derivation.Signature(),
                                    derivation.name());
  IndexPostingInsert(&by_transformation_,
                     symbols_.Intern(derivation.QualifiedTransformation()),
                     dv_id, &dirty_.by_transformation);
  if (derivation.QualifiedTransformation() != derivation.transformation()) {
    IndexPostingInsert(&by_bare_transformation_,
                       symbols_.Intern(derivation.transformation()), dv_id,
                       &dirty_.by_bare);
  }
  for (const std::string& input : derivation.InputDatasets()) {
    IndexPostingInsert(&consumers_, symbols_.Intern(input), dv_id,
                       &dirty_.consumers);
  }
  for (const std::string& output : derivation.OutputDatasets()) {
    IndexPostingInsert(&producers_, symbols_.Intern(output), dv_id,
                       &dirty_.producers);
  }
  BumpVersion('U', "derivation", derivation.name());
  dirty_.derivations = true;
  std::string name = derivation.name();
  derivations_.insert_or_assign(
      std::move(name),
      ObjEntry<Derivation>{dv_id, std::make_shared<const Derivation>(
                                      std::move(derivation))});
  return Status::OK();
}

Result<std::string> VirtualDataCatalog::AddReplica(Replica replica) {
  std::unique_lock lock(mu_);
  return CommitLocked(AddReplicaLocked(std::move(replica)));
}

Result<std::string> VirtualDataCatalog::AddReplicaLocked(Replica replica) {
  if (replica.id.empty()) {
    replica.id = "rp-" + std::to_string(next_replica_id_++);
  } else {
    // Replayed / imported id: keep the counter ahead of it.
    if (StartsWith(replica.id, "rp-")) {
      uint64_t n = std::strtoull(replica.id.c_str() + 3, nullptr, 10);
      next_replica_id_ = std::max(next_replica_id_, n + 1);
    }
  }
  VDG_RETURN_IF_ERROR(replica.Validate());
  if (datasets_.find(replica.dataset) == datasets_.end()) {
    return Status::NotFound("replica " + replica.id +
                            " references unknown dataset " + replica.dataset);
  }
  auto existing = replicas_.find(replica.id);
  bool existed = existing != replicas_.end();
  if (existed && !replaying_) {
    return Status::AlreadyExists("replica already exists: " + replica.id);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeReplica(replica)));
  if (!existed) {
    replicas_by_dataset_.emplace(replica.dataset, replica.id);
  }
  NoteReplicaState(existed ? &existing->second : nullptr, &replica);
  // Index-visible effect of a replica mutation: its dataset's
  // materialized bit may flip, so the changelog records a dataset
  // upsert.
  BumpVersion('U', "dataset", replica.dataset);
  std::string id = replica.id;
  replicas_.insert_or_assign(id, std::move(replica));
  return id;
}

Result<std::string> VirtualDataCatalog::RecordInvocation(
    Invocation invocation) {
  std::unique_lock lock(mu_);
  return CommitLocked(RecordInvocationLocked(std::move(invocation)));
}

Result<std::string> VirtualDataCatalog::RecordInvocationLocked(
    Invocation invocation) {
  if (invocation.id.empty()) {
    invocation.id = "iv-" + std::to_string(next_invocation_id_++);
  } else if (StartsWith(invocation.id, "iv-")) {
    uint64_t n = std::strtoull(invocation.id.c_str() + 3, nullptr, 10);
    next_invocation_id_ = std::max(next_invocation_id_, n + 1);
  }
  VDG_RETURN_IF_ERROR(invocation.Validate());
  // New invocations must anchor to a defined derivation; replayed ones
  // may legitimately be orphans (their derivation was removed later,
  // but the execution history is retained as the audit record).
  if (!replaying_ &&
      derivations_.find(invocation.derivation) == derivations_.end()) {
    return Status::NotFound("invocation " + invocation.id +
                            " references unknown derivation " +
                            invocation.derivation);
  }
  bool existed = invocations_.count(invocation.id) != 0;
  if (existed && !replaying_) {
    return Status::AlreadyExists("invocation already exists: " +
                                 invocation.id);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeInvocation(invocation)));
  if (!existed) {
    invocations_by_derivation_.emplace(invocation.derivation, invocation.id);
  }
  BumpVersion('U', "invocation", invocation.id);
  std::string id = invocation.id;
  invocations_.insert_or_assign(id, std::move(invocation));
  return id;
}

// ---------------------------------------------------------------------
// Batched mutation (group commit)
// ---------------------------------------------------------------------

Status VirtualDataCatalog::ApplyMutationLocked(const CatalogMutation& mutation,
                                               size_t index,
                                               BatchResult* result) {
  return std::visit(
      [&](const auto& op) -> Status {
        using Op = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
          return DefineDatasetLocked(op.dataset);
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::DefineTransformationOp>) {
          return DefineTransformationLocked(op.transformation);
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::DefineDerivationOp>) {
          return DefineDerivationLocked(op.derivation);
        } else if constexpr (std::is_same_v<Op, CatalogMutation::AnnotateOp>) {
          std::string target = op.name;
          if (op.name_from_op.has_value()) {
            if (*op.name_from_op >= index ||
                result->assigned_ids[*op.name_from_op].empty()) {
              return Status::InvalidArgument(
                  "annotate references batch op " +
                  std::to_string(*op.name_from_op) +
                  " which assigned no id");
            }
            target = result->assigned_ids[*op.name_from_op];
          }
          return AnnotateLocked(op.kind, target, op.key, op.value);
        } else if constexpr (std::is_same_v<Op,
                                            CatalogMutation::AddReplicaOp>) {
          VDG_ASSIGN_OR_RETURN(std::string id, AddReplicaLocked(op.replica));
          result->assigned_ids[index] = std::move(id);
          return Status::OK();
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::RecordInvocationOp>) {
          Invocation iv = op.invocation;
          for (size_t pos : op.produced_from_ops) {
            if (pos >= index || result->assigned_ids[pos].empty()) {
              return Status::InvalidArgument(
                  "invocation references batch op " + std::to_string(pos) +
                  " which assigned no id");
            }
            iv.produced_replicas.push_back(result->assigned_ids[pos]);
          }
          VDG_ASSIGN_OR_RETURN(std::string id,
                               RecordInvocationLocked(std::move(iv)));
          result->assigned_ids[index] = std::move(id);
          return Status::OK();
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::SetDatasetSizeOp>) {
          return SetDatasetSizeLocked(op.name, op.size_bytes);
        } else {
          static_assert(
              std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
          return InvalidateReplicaLocked(op.id);
        }
      },
      mutation.op);
}

BatchResult VirtualDataCatalog::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  std::unique_lock lock(mu_);
  BatchResult result;
  result.statuses.reserve(mutations.size());
  result.assigned_ids.resize(mutations.size());
  in_batch_ = true;
  batch_bumped_ = false;
  bool aborted = false;
  for (size_t i = 0; i < mutations.size(); ++i) {
    if (aborted) {
      result.statuses.push_back(
          Status::FailedPrecondition("batch aborted by earlier failure"));
      continue;
    }
    Status s = ApplyMutationLocked(mutations[i], i, &result);
    if (s.ok()) {
      ++result.applied;
    } else {
      if (result.first_error.ok()) result.first_error = s;
      if (options.stop_on_error) aborted = true;
    }
    result.statuses.push_back(std::move(s));
  }
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  Status flushed = journal_->Flush();
  if (!flushed.ok() && result.first_error.ok()) result.first_error = flushed;
  PublishSnapshotLocked();
  result.version = version_seq_;
  return result;
}

Status VirtualDataCatalog::ImportProgram(const VdlProgram& program) {
  std::unique_lock lock(mu_);
  in_batch_ = true;
  batch_bumped_ = false;
  Status s = ImportProgramLocked(program);
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(s));
}

Status VirtualDataCatalog::ImportProgramLocked(const VdlProgram& program) {
  for (const Dataset& ds : program.datasets) {
    VDG_RETURN_IF_ERROR(DefineDatasetLocked(ds));
  }
  for (const Transformation& tr : program.transformations) {
    VDG_RETURN_IF_ERROR(DefineTransformationLocked(tr));
  }
  for (const Derivation& dv : program.derivations) {
    VDG_RETURN_IF_ERROR(DefineDerivationLocked(dv));
  }
  return Status::OK();
}

Status VirtualDataCatalog::ImportVdl(std::string_view source) {
  // Parsing touches no catalog state; keep it outside the lock.
  VDG_ASSIGN_OR_RETURN(VdlProgram program, ParseVdl(source));
  return ImportProgram(program);
}

// ---------------------------------------------------------------------
// Point lookups
// ---------------------------------------------------------------------

Result<Dataset> VirtualDataCatalog::GetDataset(std::string_view name) const {
  return View().GetDataset(name);
}

Result<Transformation> VirtualDataCatalog::GetTransformation(
    std::string_view name) const {
  return View().GetTransformation(name);
}

Result<Derivation> VirtualDataCatalog::GetDerivation(
    std::string_view name) const {
  return View().GetDerivation(name);
}

Result<Replica> VirtualDataCatalog::GetReplica(std::string_view id) const {
  std::shared_lock lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  return it->second;
}

Result<Invocation> VirtualDataCatalog::GetInvocation(
    std::string_view id) const {
  std::shared_lock lock(mu_);
  auto it = invocations_.find(id);
  if (it == invocations_.end()) {
    return Status::NotFound("invocation not found: " + std::string(id));
  }
  return it->second;
}

bool VirtualDataCatalog::HasDataset(std::string_view name) const {
  return View().HasDataset(name);
}
bool VirtualDataCatalog::HasTransformation(std::string_view name) const {
  return View().HasTransformation(name);
}
bool VirtualDataCatalog::HasDerivation(std::string_view name) const {
  return View().HasDerivation(name);
}

// ---------------------------------------------------------------------
// Updates & removal
// ---------------------------------------------------------------------

Status VirtualDataCatalog::Annotate(std::string_view kind,
                                    std::string_view name,
                                    std::string_view key,
                                    AttributeValue value) {
  std::unique_lock lock(mu_);
  return CommitLocked(AnnotateLocked(kind, name, key, std::move(value)));
}

Status VirtualDataCatalog::AnnotateLocked(std::string_view kind,
                                          std::string_view name,
                                          std::string_view key,
                                          AttributeValue value) {
  if (kind == "dataset") {
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("dataset not found: " + std::string(name));
    }
    UnindexDatasetAttributes(*it->second.object, it->second.id);
    Dataset updated = *it->second.object;
    updated.annotations.Set(key, std::move(value));
    IndexDatasetAttributes(updated, it->second.id);
    BumpVersion('U', "dataset", name);
    dirty_.datasets = true;
    Status journaled = Journal(codec::EncodeDataset(updated));
    it->second.object = std::make_shared<const Dataset>(std::move(updated));
    return journaled;
  }
  if (kind == "transformation") {
    auto it = transformations_.find(name);
    if (it == transformations_.end()) {
      return Status::NotFound("transformation not found: " +
                              std::string(name));
    }
    Transformation updated = *it->second.object;
    updated.annotations().Set(key, std::move(value));
    BumpVersion('U', "transformation", name);
    dirty_.transformations = true;
    Status journaled = Journal(codec::EncodeTransformation(updated));
    it->second.object =
        std::make_shared<const Transformation>(std::move(updated));
    return journaled;
  }
  if (kind == "derivation") {
    auto it = derivations_.find(name);
    if (it == derivations_.end()) {
      return Status::NotFound("derivation not found: " + std::string(name));
    }
    Derivation updated = *it->second.object;
    updated.annotations().Set(key, std::move(value));
    BumpVersion('U', "derivation", name);
    dirty_.derivations = true;
    Status journaled = Journal(codec::EncodeDerivation(updated));
    it->second.object = std::make_shared<const Derivation>(std::move(updated));
    return journaled;
  }
  if (kind == "replica") {
    auto it = replicas_.find(name);
    if (it == replicas_.end()) {
      return Status::NotFound("replica not found: " + std::string(name));
    }
    it->second.annotations.Set(key, std::move(value));
    BumpVersion('U', "dataset", it->second.dataset);
    return Journal(codec::EncodeReplica(it->second));
  }
  if (kind == "invocation") {
    auto it = invocations_.find(name);
    if (it == invocations_.end()) {
      return Status::NotFound("invocation not found: " + std::string(name));
    }
    it->second.annotations.Set(key, std::move(value));
    BumpVersion('U', "invocation", name);
    return Journal(codec::EncodeInvocation(it->second));
  }
  return Status::InvalidArgument("unknown object kind: " + std::string(kind));
}

Status VirtualDataCatalog::SetDatasetSize(std::string_view name,
                                          int64_t size_bytes) {
  std::unique_lock lock(mu_);
  return CommitLocked(SetDatasetSizeLocked(name, size_bytes));
}

Status VirtualDataCatalog::SetDatasetSizeLocked(std::string_view name,
                                                int64_t size_bytes) {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  if (size_bytes < 0) {
    return Status::InvalidArgument("negative dataset size");
  }
  Dataset updated = *it->second.object;
  updated.size_bytes = size_bytes;
  BumpVersion('U', "dataset", name);
  dirty_.datasets = true;
  Status journaled = Journal(codec::EncodeDataset(updated));
  it->second.object = std::make_shared<const Dataset>(std::move(updated));
  return journaled;
}

Status VirtualDataCatalog::InvalidateReplica(std::string_view id) {
  std::unique_lock lock(mu_);
  return CommitLocked(InvalidateReplicaLocked(id));
}

Status VirtualDataCatalog::InvalidateReplicaLocked(std::string_view id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  if (!it->second.valid) return Status::OK();
  Replica before = it->second;
  it->second.valid = false;
  NoteReplicaState(&before, &it->second);
  BumpVersion('U', "dataset", it->second.dataset);
  return Journal(codec::EncodeReplica(it->second));
}

Status VirtualDataCatalog::RemoveDataset(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveDatasetLocked(name));
}

Status VirtualDataCatalog::RemoveDatasetLocked(std::string_view name) {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  // Cascade to its replicas.
  std::vector<std::string> replica_ids;
  auto [lo, hi] = replicas_by_dataset_.equal_range(name);
  for (auto r = lo; r != hi; ++r) replica_ids.push_back(r->second);
  for (const std::string& id : replica_ids) {
    VDG_RETURN_IF_ERROR(RemoveReplicaLocked(id));
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('S', name)));
  UnindexDatasetAttributes(*it->second.object, it->second.id);
  UnindexDatasetType(*it->second.object, it->second.id);
  auto vit = valid_replicas_by_dataset_.find(name);
  if (vit != valid_replicas_by_dataset_.end()) {
    valid_replicas_by_dataset_.erase(vit);
    PostingErase(&materialized_, it->second.id);
    dirty_.materialized = true;
  }
  BumpVersion('D', "dataset", name);
  dirty_.datasets = true;
  datasets_.erase(it);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveTransformation(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveTransformationLocked(name));
}

Status VirtualDataCatalog::RemoveTransformationLocked(std::string_view name) {
  auto it = transformations_.find(name);
  if (it == transformations_.end()) {
    return Status::NotFound("transformation not found: " + std::string(name));
  }
  Id tr_id = symbols_.Find(name);
  if (tr_id != SymbolTable::kNoSymbol &&
      by_transformation_.count(tr_id) != 0) {
    return Status::FailedPrecondition(
        "transformation " + std::string(name) +
        " is referenced by derivations and cannot be removed");
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('T', name)));
  BumpVersion('D', "transformation", name);
  dirty_.transformations = true;
  transformations_.erase(it);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveDerivation(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveDerivationLocked(name));
}

Status VirtualDataCatalog::RemoveDerivationLocked(std::string_view name) {
  auto it = derivations_.find(name);
  if (it == derivations_.end()) {
    return Status::NotFound("derivation not found: " + std::string(name));
  }
  const Derivation& dv = *it->second.object;
  Id dv_id = it->second.id;
  EraseIndexEntry(&derivations_by_signature_, dv.Signature(),
                  std::string(name));
  IndexPostingErase(&by_transformation_,
                    symbols_.Intern(dv.QualifiedTransformation()), dv_id,
                    &dirty_.by_transformation);
  if (dv.QualifiedTransformation() != dv.transformation()) {
    IndexPostingErase(&by_bare_transformation_,
                      symbols_.Intern(dv.transformation()), dv_id,
                      &dirty_.by_bare);
  }
  for (const std::string& input : dv.InputDatasets()) {
    IndexPostingErase(&consumers_, symbols_.Intern(input), dv_id,
                      &dirty_.consumers);
  }
  for (const std::string& output : dv.OutputDatasets()) {
    IndexPostingErase(&producers_, symbols_.Intern(output), dv_id,
                      &dirty_.producers);
  }
  // Outputs lose their producer but remain defined.
  for (const std::string& output : dv.OutputDatasets()) {
    auto ds = datasets_.find(output);
    if (ds != datasets_.end() && ds->second.object->producer == name) {
      Dataset updated = *ds->second.object;
      updated.producer.clear();
      VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(updated)));
      ds->second.object = std::make_shared<const Dataset>(std::move(updated));
      dirty_.datasets = true;
    }
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('D', name)));
  BumpVersion('D', "derivation", name);
  dirty_.derivations = true;
  derivations_.erase(it);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveReplica(std::string_view id) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveReplicaLocked(id));
}

Status VirtualDataCatalog::RemoveReplicaLocked(std::string_view id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  EraseIndexEntry(&replicas_by_dataset_, it->second.dataset, std::string(id));
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('R', id)));
  NoteReplicaState(&it->second, nullptr);
  BumpVersion('U', "dataset", it->second.dataset);
  replicas_.erase(it);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------

std::vector<Replica> VirtualDataCatalog::ReplicasOf(std::string_view dataset,
                                                    bool valid_only) const {
  std::shared_lock lock(mu_);
  std::vector<Replica> out;
  auto [lo, hi] = replicas_by_dataset_.equal_range(dataset);
  for (auto it = lo; it != hi; ++it) {
    auto r = replicas_.find(it->second);
    if (r == replicas_.end()) continue;
    if (valid_only && !r->second.valid) continue;
    out.push_back(r->second);
  }
  return out;
}

bool VirtualDataCatalog::IsMaterialized(std::string_view dataset) const {
  return View().IsMaterialized(dataset);
}

bool VirtualDataCatalog::IsMaterializedLocked(std::string_view dataset) const {
  // The incremental materialized set only holds datasets with a
  // positive valid-replica count, so membership is the answer.
  return valid_replicas_by_dataset_.find(dataset) !=
         valid_replicas_by_dataset_.end();
}

Result<std::string> VirtualDataCatalog::ProducerOf(
    std::string_view dataset) const {
  return View().ProducerOf(dataset);
}

NameList VirtualDataCatalog::ConsumersOf(
    std::string_view dataset) const {
  return View().ConsumersOf(dataset);
}

std::vector<Invocation> VirtualDataCatalog::InvocationsOf(
    std::string_view derivation) const {
  std::shared_lock lock(mu_);
  std::vector<Invocation> out;
  auto [lo, hi] = invocations_by_derivation_.equal_range(derivation);
  for (auto it = lo; it != hi; ++it) {
    auto iv = invocations_.find(it->second);
    if (iv != invocations_.end()) out.push_back(iv->second);
  }
  return out;
}

NameList VirtualDataCatalog::DerivationsUsing(
    std::string_view transformation) const {
  return View().DerivationsUsing(transformation);
}

// ---------------------------------------------------------------------
// Discovery (delegated to the pinned snapshot)
// ---------------------------------------------------------------------

NameList VirtualDataCatalog::FindDatasets(
    const DatasetQuery& query) const {
  return View().FindDatasets(query);
}

QueryPlan VirtualDataCatalog::ExplainFindDatasets(
    const DatasetQuery& query) const {
  return View().ExplainFindDatasets(query);
}

NameList VirtualDataCatalog::FindTransformations(
    const TransformationQuery& query) const {
  return View().FindTransformations(query);
}

NameList VirtualDataCatalog::FindDerivations(
    const DerivationQuery& query) const {
  return View().FindDerivations(query);
}

QueryPlan VirtualDataCatalog::ExplainFindDerivations(
    const DerivationQuery& query) const {
  return View().ExplainFindDerivations(query);
}

Result<std::string> VirtualDataCatalog::FindEquivalentDerivation(
    const Derivation& derivation) const {
  std::shared_lock lock(mu_);
  return FindEquivalentDerivationLocked(derivation);
}

Result<std::string> VirtualDataCatalog::FindEquivalentDerivationLocked(
    const Derivation& derivation) const {
  std::string want = derivation.SignatureText();
  auto [lo, hi] = derivations_by_signature_.equal_range(derivation.Signature());
  for (auto it = lo; it != hi; ++it) {
    auto dv = derivations_.find(it->second);
    if (dv != derivations_.end() &&
        dv->second.object->SignatureText() == want) {
      return it->second;
    }
  }
  return Status::NotFound("no equivalent derivation recorded");
}

bool VirtualDataCatalog::HasBeenComputed(const Derivation& derivation) const {
  std::shared_lock lock(mu_);
  Result<std::string> existing = FindEquivalentDerivationLocked(derivation);
  if (!existing.ok()) return false;
  auto dv = derivations_.find(*existing);
  if (dv == derivations_.end()) return false;
  std::vector<std::string> outputs = dv->second.object->OutputDatasets();
  if (outputs.empty()) return false;
  for (const std::string& output : outputs) {
    if (!IsMaterializedLocked(output)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Enumeration & stats
// ---------------------------------------------------------------------

namespace {
template <typename Map>
std::vector<std::string> Keys(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) {
    (void)value;
    out.push_back(key);
  }
  return out;
}
}  // namespace

NameList VirtualDataCatalog::AllDatasetNames() const {
  return View().AllDatasetNames();
}
NameList VirtualDataCatalog::AllTransformationNames() const {
  return View().AllTransformationNames();
}
NameList VirtualDataCatalog::AllDerivationNames() const {
  return View().AllDerivationNames();
}
std::vector<std::string> VirtualDataCatalog::AllReplicaIds() const {
  std::shared_lock lock(mu_);
  return Keys(replicas_);
}
std::vector<std::string> VirtualDataCatalog::AllInvocationIds() const {
  std::shared_lock lock(mu_);
  return Keys(invocations_);
}

CatalogStats VirtualDataCatalog::Stats() const {
  std::shared_lock lock(mu_);
  CatalogStats stats;
  stats.datasets = datasets_.size();
  stats.transformations = transformations_.size();
  stats.derivations = derivations_.size();
  stats.replicas = replicas_.size();
  stats.invocations = invocations_.size();
  return stats;
}

std::vector<std::string> VirtualDataCatalog::CurrentStateRecords() const {
  std::shared_lock lock(mu_);
  return CurrentStateRecordsLocked();
}

std::vector<std::string> VirtualDataCatalog::CurrentStateRecordsLocked()
    const {
  std::vector<std::string> records;
  // Types, parents before children (sorted by depth per dimension).
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const TypeHierarchy& h = types_.dimension(dim);
    std::vector<std::pair<int, std::string>> by_depth;
    for (std::string_view name : h.AllTypes()) {
      Result<int> depth = h.DepthOf(name);
      by_depth.emplace_back(depth.ok() ? *depth : 0, std::string(name));
    }
    std::sort(by_depth.begin(), by_depth.end());
    for (const auto& [depth, name] : by_depth) {
      (void)depth;
      Result<std::string> parent = h.ParentOf(name);
      records.push_back(codec::JoinRecord(
          {"TY", std::to_string(d), name,
           parent.ok() ? *parent : std::string(h.base_name())}));
    }
  }
  for (const auto& [name, ds] : datasets_) {
    (void)name;
    records.push_back(codec::EncodeDataset(*ds.object));
  }
  for (const auto& [name, tr] : transformations_) {
    (void)name;
    records.push_back(codec::EncodeTransformation(*tr.object));
  }
  for (const auto& [name, dv] : derivations_) {
    (void)name;
    records.push_back(codec::EncodeDerivation(*dv.object));
  }
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    records.push_back(codec::EncodeReplica(replica));
  }
  for (const auto& [id, iv] : invocations_) {
    (void)id;
    records.push_back(codec::EncodeInvocation(iv));
  }
  return records;
}

std::string VirtualDataCatalog::ExportVdl() const {
  VdlProgram program;
  {
    std::shared_lock lock(mu_);
    program = ExportProgramLocked();
  }
  // Printing works on the copied program; no need to hold the lock.
  return PrintProgram(program);
}

VdlProgram VirtualDataCatalog::ExportProgram() const {
  std::shared_lock lock(mu_);
  return ExportProgramLocked();
}

VdlProgram VirtualDataCatalog::ExportProgramLocked() const {
  VdlProgram program;
  for (const auto& [name, ds] : datasets_) {
    (void)name;
    program.datasets.push_back(*ds.object);
  }
  for (const auto& [name, tr] : transformations_) {
    (void)name;
    program.transformations.push_back(*tr.object);
  }
  for (const auto& [name, dv] : derivations_) {
    (void)name;
    program.derivations.push_back(*dv.object);
  }
  return program;
}

// ---------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------

Status VirtualDataCatalog::ApplyRecord(const std::string& record) {
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                       codec::SplitRecord(record));
  if (fields.empty()) return Status::ParseError("empty journal record");
  const std::string& tag = fields[0];

  if (tag == "DS" || tag == "TR" || tag == "DV") {
    if (fields.size() < 2) {
      return Status::ParseError("object record missing VDL text");
    }
    VDG_ASSIGN_OR_RETURN(VdlProgram program, ParseVdl(fields[1]));
    VDG_ASSIGN_OR_RETURN(AttributeSet attrs,
                         codec::ParseAttributes(fields, 2));
    if (tag == "DS" && program.datasets.size() == 1) {
      Dataset ds = std::move(program.datasets[0]);
      ds.annotations = std::move(attrs);
      return DefineDatasetLocked(std::move(ds));
    }
    if (tag == "TR" && program.transformations.size() == 1) {
      Transformation tr = std::move(program.transformations[0]);
      tr.annotations() = std::move(attrs);
      return DefineTransformationLocked(std::move(tr));
    }
    if (tag == "DV" && program.derivations.size() == 1) {
      Derivation dv = std::move(program.derivations[0]);
      dv.annotations() = std::move(attrs);
      auto existing = derivations_.find(dv.name());
      if (existing != derivations_.end()) {
        // A re-emitted define is an annotation upsert (the live path
        // rejects duplicate names, so the signature is unchanged).
        // Don't re-validate inputs: they were valid when the original
        // define was journaled and may have been removed since.
        Derivation updated = *existing->second.object;
        updated.annotations() = dv.annotations();
        existing->second.object =
            std::make_shared<const Derivation>(std::move(updated));
        dirty_.derivations = true;
        return Status::OK();
      }
      return DefineDerivationLocked(std::move(dv));
    }
    return Status::ParseError("record tag/content mismatch: " + tag);
  }
  if (tag == "RP") {
    VDG_ASSIGN_OR_RETURN(Replica r, codec::DecodeReplica(fields));
    // Upsert semantics: replica re-puts carry annotation/invalidation
    // updates.
    auto existing = replicas_.find(r.id);
    if (existing != replicas_.end()) {
      NoteReplicaState(&existing->second, &r);
      replicas_.insert_or_assign(r.id, std::move(r));
      return Status::OK();
    }
    Result<std::string> added = AddReplicaLocked(std::move(r));
    return added.ok() ? Status::OK() : added.status();
  }
  if (tag == "IV") {
    VDG_ASSIGN_OR_RETURN(Invocation iv, codec::DecodeInvocation(fields));
    if (invocations_.count(iv.id) != 0) {
      invocations_.insert_or_assign(iv.id, std::move(iv));
      return Status::OK();
    }
    return RecordInvocationLocked(std::move(iv)).status();
  }
  if (tag == "TY") {
    if (fields.size() < 4) return Status::ParseError("short TY record");
    int dim = static_cast<int>(std::strtol(fields[1].c_str(), nullptr, 10));
    if (dim < 0 || dim >= kNumTypeDimensions) {
      return Status::ParseError("bad TY dimension");
    }
    return DefineTypeLocked(static_cast<TypeDimension>(dim), fields[2],
                            fields[3]);
  }
  if (tag.size() == 2 && tag[0] == 'X') {
    if (fields.size() < 2) return Status::ParseError("removal missing name");
    const std::string& name = fields[1];
    switch (tag[1]) {
      case 'S':
        return RemoveDatasetLocked(name);
      case 'T':
        return RemoveTransformationLocked(name);
      case 'D':
        return RemoveDerivationLocked(name);
      case 'R':
        return RemoveReplicaLocked(name);
      default:
        return Status::ParseError("unknown removal tag: " + tag);
    }
  }
  return Status::ParseError("unknown journal record tag: " + tag);
}

}  // namespace vdg
