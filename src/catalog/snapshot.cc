#include "catalog/snapshot.h"

#include <algorithm>

#include "common/strings.h"

namespace vdg {

namespace {

using Id = CatalogSnapshot::Id;
using PostingList = CatalogSnapshot::PostingList;

/// Shared empty posting list for missing index keys.
const PostingList& EmptyPosting() {
  static const PostingList empty = std::make_shared<const PostingBlocks>();
  return empty;
}

template <typename Map, typename K>
const PostingList& LookupPosting(const Map& map, const K& key) {
  auto it = map.find(key);
  return it == map.end() ? EmptyPosting() : it->second;
}

/// Binary search for a row by name; rows are sorted by name.
template <typename T>
const CatalogSnapshot::Row<T>* FindRow(const CatalogSnapshot::Rows<T>& rows,
                                       std::string_view name) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const CatalogSnapshot::Row<T>& row, std::string_view target) {
        return row.name < target;
      });
  if (it == rows.end() || it->name != name) return nullptr;
  return &*it;
}

/// Accumulates (view, id) pairs during a row scan and freezes them into
/// a snapshot-pinned NameList — the zero-copy result-plane terminal:
/// the views point straight into the symbol spine the snapshot keeps
/// alive, so no name byte is copied between the scan and the consumer
/// (DESIGN.md §15).
class PinnedListBuilder {
 public:
  explicit PinnedListBuilder(size_t reserve_hint) {
    views_.reserve(reserve_hint);
    ids_.reserve(reserve_hint);
  }
  void Add(std::string_view name, Id id) {
    views_.push_back(name);
    ids_.push_back(id);
  }
  size_t size() const { return views_.size(); }
  NameList Build(std::shared_ptr<const CatalogSnapshot> pin) && {
    return NameList::FromViews(std::move(pin), std::move(views_),
                               std::move(ids_));
  }

 private:
  std::vector<std::string_view> views_;
  std::vector<NameList::Id> ids_;
};

template <typename T>
NameList RowNames(std::shared_ptr<const CatalogSnapshot> pin,
                  const CatalogSnapshot::Rows<T>& rows) {
  PinnedListBuilder out(rows.size());
  for (const auto& row : rows) out.Add(row.name, row.id);
  return std::move(out).Build(std::move(pin));
}

/// O(1) id -> row-index resolution (kNoRow when absent).
inline uint32_t RowOf(const std::vector<uint32_t>& row_of_id, Id id) {
  return id < row_of_id.size() ? row_of_id[id] : CatalogSnapshot::kNoRow;
}

/// Intersects selectivity-sorted posting lists: seed from the rarest,
/// then progressively AND in the rest, stopping the moment the running
/// set is empty. Returns distinct ids ascending by id value.
template <typename P>
std::vector<Id> IntersectSorted(const std::vector<P>& postings,
                                bool* short_circuited) {
  *short_circuited = false;
  std::vector<Id> candidates;
  if (postings.empty()) return candidates;
  if (postings[0].ids->empty()) {
    *short_circuited = postings.size() > 1;
    return candidates;
  }
  if (postings.size() == 1) {
    candidates.reserve(postings[0].ids->distinct());
    postings[0].ids->ForEach([&candidates](Id id) { candidates.push_back(id); });
    return candidates;
  }
  candidates = PostingBlocks::Intersect(*postings[0].ids, *postings[1].ids);
  for (size_t i = 2; i < postings.size(); ++i) {
    if (candidates.empty()) {
      *short_circuited = true;
      return candidates;
    }
    PostingBlocks::IntersectWith(&candidates, *postings[i].ids);
  }
  return candidates;
}

/// Maps surviving ids to row indexes in ascending row order: rows are
/// name-sorted, so ascending row order IS name order. `for_each_id`
/// invokes its callback once per candidate id; `count_hint` is the
/// candidate count (used only to reserve). When the row space is small
/// relative to the candidate set, ordering goes through a dense row
/// bitmap (scatter then in-order scan) instead of a comparison sort —
/// the common shape for selective queries over mid-sized catalogs;
/// huge-catalog/tiny-result queries fall back to the sort. Rows are
/// delivered through `emit_row` so collectors can feed a
/// PinnedListBuilder directly without an intermediate row vector.
template <typename ForEachId, typename EmitRow>
void EmitRowsInNameOrder(size_t count_hint,
                         const std::vector<uint32_t>& row_of_id,
                         size_t num_rows, ForEachId&& for_each_id,
                         EmitRow&& emit_row) {
  const size_t words = (num_rows + 63) / 64;
  if (count_hint != 0 && words <= 16 * count_hint + 64) {
    thread_local std::vector<uint64_t> bits;
    if (bits.size() < words) bits.resize(words);
    std::fill_n(bits.begin(), words, uint64_t{0});
    for_each_id([&](Id id) {
      const uint32_t row = RowOf(row_of_id, id);
      if (row != CatalogSnapshot::kNoRow) {
        bits[row >> 6] |= uint64_t{1} << (row & 63);
      }
    });
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        emit_row(static_cast<uint32_t>(
            (w << 6) + static_cast<uint32_t>(__builtin_ctzll(word))));
        word &= word - 1;
      }
    }
    return;
  }
  std::vector<uint32_t> rows;
  rows.reserve(count_hint);
  for_each_id([&](Id id) {
    const uint32_t row = RowOf(row_of_id, id);
    if (row != CatalogSnapshot::kNoRow) rows.push_back(row);
  });
  std::sort(rows.begin(), rows.end());
  for (uint32_t row : rows) emit_row(row);
}

template <typename ForEachId>
std::vector<uint32_t> CollectRowsInNameOrder(
    size_t count_hint, const std::vector<uint32_t>& row_of_id, size_t num_rows,
    ForEachId&& for_each_id) {
  std::vector<uint32_t> rows;
  rows.reserve(count_hint);
  EmitRowsInNameOrder(count_hint, row_of_id, num_rows,
                      std::forward<ForEachId>(for_each_id),
                      [&rows](uint32_t row) { rows.push_back(row); });
  return rows;
}

}  // namespace

// ---------------------------------------------------------------------
// Point lookups
// ---------------------------------------------------------------------

const CatalogSnapshot::Row<Dataset>* CatalogView::FindDatasetRow(
    std::string_view name) const {
  return FindRow(*snap_->datasets, name);
}
const CatalogSnapshot::Row<Transformation>* CatalogView::FindTransformationRow(
    std::string_view name) const {
  return FindRow(*snap_->transformations, name);
}
const CatalogSnapshot::Row<Derivation>* CatalogView::FindDerivationRow(
    std::string_view name) const {
  return FindRow(*snap_->derivations, name);
}

Result<Dataset> CatalogView::GetDataset(std::string_view name) const {
  const auto* row = FindDatasetRow(name);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  return *row->object;
}

Result<Transformation> CatalogView::GetTransformation(
    std::string_view name) const {
  const auto* row = FindTransformationRow(name);
  if (row == nullptr) {
    return Status::NotFound("transformation not found: " + std::string(name));
  }
  return *row->object;
}

Result<Derivation> CatalogView::GetDerivation(std::string_view name) const {
  const auto* row = FindDerivationRow(name);
  if (row == nullptr) {
    return Status::NotFound("derivation not found: " + std::string(name));
  }
  return *row->object;
}

bool CatalogView::HasDataset(std::string_view name) const {
  return FindDatasetRow(name) != nullptr;
}
bool CatalogView::HasTransformation(std::string_view name) const {
  return FindTransformationRow(name) != nullptr;
}
bool CatalogView::HasDerivation(std::string_view name) const {
  return FindDerivationRow(name) != nullptr;
}

// ---------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------

bool CatalogView::IsMaterialized(std::string_view dataset) const {
  Id id = snap_->symbols.FindId(dataset);
  if (id == SymbolTable::kNoSymbol) return false;
  return snap_->materialized->Contains(id);
}

Result<std::string> CatalogView::ProducerOf(std::string_view dataset) const {
  const auto* row = FindDatasetRow(dataset);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(dataset));
  }
  if (row->object->producer.empty()) {
    return Status::NotFound("dataset " + std::string(dataset) +
                            " has no producing derivation (raw input)");
  }
  return row->object->producer;
}

NameList CatalogView::ConsumersOf(std::string_view dataset) const {
  Id id = snap_->symbols.FindId(dataset);
  if (id == SymbolTable::kNoSymbol) return NameList();
  // Enumerate with duplicates (one entry per consuming argument, the
  // historical multimap behavior), restored to name order through the
  // row map.
  const auto& row_of_id = *snap_->derivation_row_of_id;
  const auto& rows = *snap_->derivations;
  std::vector<uint32_t> hits;
  LookupPosting(*snap_->consumers, id)->ForEachOccurrence([&](Id dv) {
    const uint32_t row = RowOf(row_of_id, dv);
    if (row != CatalogSnapshot::kNoRow) hits.push_back(row);
  });
  std::sort(hits.begin(), hits.end());
  PinnedListBuilder out(hits.size());
  for (uint32_t row : hits) out.Add(rows[row].name, rows[row].id);
  return std::move(out).Build(snap_);
}

NameList CatalogView::DerivationsUsing(std::string_view transformation) const {
  Id id = snap_->symbols.FindId(transformation);
  if (id == SymbolTable::kNoSymbol) return NameList();
  const auto& row_of_id = *snap_->derivation_row_of_id;
  const auto& rows = *snap_->derivations;
  std::vector<uint32_t> hits;
  LookupPosting(*snap_->by_transformation, id)->ForEachOccurrence([&](Id dv) {
    const uint32_t row = RowOf(row_of_id, dv);
    if (row != CatalogSnapshot::kNoRow) hits.push_back(row);
  });
  std::sort(hits.begin(), hits.end());
  PinnedListBuilder out(hits.size());
  for (uint32_t row : hits) out.Add(rows[row].name, rows[row].id);
  return std::move(out).Build(snap_);
}

// ---------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------

std::vector<CatalogView::Posting> CatalogView::DatasetPostings(
    const DatasetQuery& query, bool with_drivers) const {
  std::vector<Posting> postings;
  for (const AttributePredicate& predicate : query.predicates) {
    if (predicate.op != PredicateOp::kEq) continue;
    Posting p;
    p.path = AccessPath::kAttributeIndex;
    if (with_drivers) {
      p.driver = "attr " + predicate.key + "=" + predicate.operand.ToString();
    }
    Id key_id = snap_->symbols.FindId(predicate.key);
    p.ids = key_id == SymbolTable::kNoSymbol
                ? EmptyPosting()
                : LookupPosting(
                      *snap_->attr_index,
                      CatalogSnapshot::AttrKey(
                          key_id,
                          snapshot_internal::TaggedAttrValue(
                              predicate.operand)));
    postings.push_back(std::move(p));
  }
  if (query.type && !query.type->IsAny()) {
    for (int d = 0; d < kNumTypeDimensions; ++d) {
      auto dim = static_cast<TypeDimension>(d);
      const std::string& component = query.type->component(dim);
      const TypeHierarchy& h = snap_->types->dimension(dim);
      // An empty or base-typed component accepts anything — no list.
      if (component.empty() || component == h.base_name()) continue;
      Posting p;
      p.path = AccessPath::kTypeIndex;
      if (with_drivers) {
        p.driver =
            "type " + std::string(TypeDimensionName(dim)) + ":" + component;
      }
      Id type_id = snap_->symbols.FindId(component);
      p.ids = type_id == SymbolTable::kNoSymbol
                  ? EmptyPosting()
                  : LookupPosting(*snap_->type_index,
                                  snapshot_internal::PackTypeKey(dim, type_id));
      postings.push_back(std::move(p));
    }
  }
  return postings;
}

NameList CatalogView::FindDatasets(const DatasetQuery& query) const {
  // Hot-path special case: one indexed kEq predicate and nothing else
  // (the broad shard-scan shape). The answer is exactly one posting
  // list, so skip the plan machinery — no postings vector, no
  // shared_ptr copies, no selectivity sort — and stream the posting
  // straight into the pinned builder.
  if (query.predicates.size() == 1 &&
      query.predicates[0].op == PredicateOp::kEq &&
      (!query.type || query.type->IsAny()) && query.name_prefix.empty() &&
      !query.require_materialized && !query.only_virtual) {
    const AttributePredicate& predicate = query.predicates[0];
    Id key_id = snap_->symbols.FindId(predicate.key);
    const PostingList& only =
        key_id == SymbolTable::kNoSymbol
            ? EmptyPosting()
            : LookupPosting(*snap_->attr_index,
                            CatalogSnapshot::AttrKey(
                                key_id, snapshot_internal::TaggedAttrValue(
                                            predicate.operand)));
    const auto& ds_rows = *snap_->datasets;
    const size_t hint = only->distinct();
    PinnedListBuilder out(query.limit != 0 ? std::min(query.limit, hint)
                                           : hint);
    if (query.limit == 0) {
      EmitRowsInNameOrder(hint, *snap_->dataset_row_of_id, ds_rows.size(),
                          [&only](auto&& emit) { only->ForEach(emit); },
                          [&](uint32_t row) {
                            out.Add(ds_rows[row].name, ds_rows[row].id);
                          });
    } else {
      EmitRowsInNameOrder(hint, *snap_->dataset_row_of_id, ds_rows.size(),
                          [&only](auto&& emit) { only->ForEach(emit); },
                          [&](uint32_t row) {
                            if (out.size() >= query.limit) return;
                            out.Add(ds_rows[row].name, ds_rows[row].id);
                          });
    }
    return std::move(out).Build(snap_);
  }

  // Indexed path: intersect the posting lists rarest-first, then remap
  // the survivors to name order through the row map.
  std::vector<Posting> postings = DatasetPostings(query, /*with_drivers=*/false);
  if (!postings.empty()) {
    // The attribute lists answer kEq predicates exactly and the type
    // lists are per-dimension conformance closures, so when every
    // predicate is an indexed kEq, the type is fully covered, and the
    // materialized set rides along as one more list, the intersection
    // IS the answer — no residual re-check per candidate.
    size_t eq_predicates = 0;
    for (const AttributePredicate& p : query.predicates) {
      if (p.op == PredicateOp::kEq) ++eq_predicates;
    }
    const bool exact = eq_predicates == query.predicates.size() &&
                       query.name_prefix.empty() && !query.only_virtual;
    if (query.require_materialized) {
      Posting p;
      p.path = AccessPath::kMaterializedSet;
      p.driver = "materialized-set";
      p.ids = snap_->materialized;
      postings.push_back(std::move(p));
    }
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    const auto& ds_rows = *snap_->datasets;
    size_t reserve_hint;
    std::vector<Id> candidates;
    if (postings.size() == 1) {
      // Single-list plan: the posting already holds the candidate set,
      // so stream it straight into the pinned builder — no
      // intermediate id or row vector.
      reserve_hint = postings[0].ids->distinct();
    } else {
      bool short_circuited = false;
      candidates = IntersectSorted(postings, &short_circuited);
      reserve_hint = candidates.size();
    }
    if (query.limit != 0) reserve_hint = std::min(query.limit, reserve_hint);
    PinnedListBuilder out(reserve_hint);
    bool done = false;
    auto take_row = [&](uint32_t row) {
      if (done) return;
      if (!exact) {
        std::string_view name = ds_rows[row].name;
        const Dataset& ds = *ds_rows[row].object;
        if (!query.name_prefix.empty() &&
            !StartsWith(name, query.name_prefix)) {
          return;
        }
        if (query.type && !snap_->types->Conforms(ds.type, *query.type)) {
          return;
        }
        if (!MatchesAll(ds.annotations, query.predicates)) return;
        if (query.only_virtual &&
            snap_->materialized->Contains(ds_rows[row].id)) {
          return;
        }
      }
      out.Add(ds_rows[row].name, ds_rows[row].id);
      if (query.limit != 0 && out.size() >= query.limit) done = true;
    };
    if (postings.size() == 1) {
      const PostingBlocks& only = *postings[0].ids;
      EmitRowsInNameOrder(only.distinct(), *snap_->dataset_row_of_id,
                          ds_rows.size(),
                          [&only](auto&& emit) { only.ForEach(emit); },
                          take_row);
    } else {
      EmitRowsInNameOrder(candidates.size(), *snap_->dataset_row_of_id,
                          ds_rows.size(),
                          [&candidates](auto&& emit) {
                            for (Id id : candidates) emit(id);
                          },
                          take_row);
    }
    return std::move(out).Build(snap_);
  }

  // Residual filter for the non-indexed paths: checks every condition.
  auto matches = [this, &query](std::string_view name, const Dataset& ds) {
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      return false;
    }
    if (query.type && !snap_->types->Conforms(ds.type, *query.type)) {
      return false;
    }
    if (!MatchesAll(ds.annotations, query.predicates)) return false;
    if (query.require_materialized && !IsMaterialized(name)) return false;
    if (query.only_virtual && IsMaterialized(name)) return false;
    return true;
  };

  // Materialized-set path: enumerate only datasets with valid replicas.
  if (query.require_materialized) {
    const auto& ds_rows = *snap_->datasets;
    const PostingBlocks& mat = *snap_->materialized;
    const std::vector<uint32_t> rows = CollectRowsInNameOrder(
        mat.distinct(), *snap_->dataset_row_of_id, ds_rows.size(),
        [&mat](auto&& emit) { mat.ForEach(emit); });
    PinnedListBuilder out(rows.size());
    for (uint32_t row : rows) {
      if (!matches(ds_rows[row].name, *ds_rows[row].object)) continue;
      out.Add(ds_rows[row].name, ds_rows[row].id);
      if (query.limit != 0 && out.size() >= query.limit) break;
    }
    return std::move(out).Build(snap_);
  }

  // Name-prefix path: bounded range scan over the name-sorted rows.
  const auto& rows = *snap_->datasets;
  auto it = query.name_prefix.empty()
                ? rows.begin()
                : std::lower_bound(
                      rows.begin(), rows.end(),
                      std::string_view(query.name_prefix),
                      [](const CatalogSnapshot::Row<Dataset>& row,
                         std::string_view target) { return row.name < target; });
  PinnedListBuilder out(query.limit != 0 ? query.limit : rows.size());
  for (; it != rows.end(); ++it) {
    if (!query.name_prefix.empty() &&
        !StartsWith(it->name, query.name_prefix)) {
      break;
    }
    if (!matches(it->name, *it->object)) continue;
    out.Add(it->name, it->id);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return std::move(out).Build(snap_);
}

QueryPlan CatalogView::ExplainFindDatasets(const DatasetQuery& query) const {
  QueryPlan plan;
  std::vector<Posting> postings = DatasetPostings(query, /*with_drivers=*/true);
  if (!postings.empty()) {
    plan.posting_lists = postings.size();
    size_t eq_predicates = 0;
    for (const AttributePredicate& p : query.predicates) {
      if (p.op == PredicateOp::kEq) ++eq_predicates;
    }
    plan.exact = eq_predicates == query.predicates.size() &&
                 query.name_prefix.empty() && !query.only_virtual;
    if (query.require_materialized) {
      Posting p;
      p.path = AccessPath::kMaterializedSet;
      p.driver = "materialized-set";
      p.ids = snap_->materialized;
      postings.push_back(std::move(p));
    }
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    plan.path = postings[0].path;
    plan.driver = postings[0].driver;
    plan.estimated_candidates = postings[0].ids->size();
    plan.order.reserve(postings.size());
    for (const Posting& p : postings) {
      plan.order.push_back({p.path, p.driver, p.ids->size()});
    }
    bool short_circuited = false;
    plan.actual_candidates = IntersectSorted(postings, &short_circuited).size();
    plan.short_circuited = short_circuited;
    return plan;
  }
  if (query.require_materialized) {
    plan.path = AccessPath::kMaterializedSet;
    plan.driver = "materialized-set";
    plan.estimated_candidates = snap_->materialized->size();
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  if (!query.name_prefix.empty()) {
    plan.path = AccessPath::kNamePrefixRange;
    plan.driver = "prefix " + query.name_prefix;
    plan.estimated_candidates = snap_->datasets->size();  // upper bound
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  plan.path = AccessPath::kFullScan;
  plan.driver = "datasets";
  plan.estimated_candidates = snap_->datasets->size();
  plan.actual_candidates = plan.estimated_candidates;
  return plan;
}

NameList CatalogView::FindTransformations(
    const TransformationQuery& query) const {
  const auto& rows = *snap_->transformations;
  const TypeRegistry& types = *snap_->types;
  // Prefix queries scan only the matching range of the sorted rows.
  auto it = query.name_prefix.empty()
                ? rows.begin()
                : std::lower_bound(
                      rows.begin(), rows.end(),
                      std::string_view(query.name_prefix),
                      [](const CatalogSnapshot::Row<Transformation>& row,
                         std::string_view target) { return row.name < target; });
  PinnedListBuilder out(query.limit != 0 ? query.limit : rows.size());
  for (; it != rows.end(); ++it) {
    std::string_view name = it->name;
    const Transformation& tr = *it->object;
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      break;
    }
    if (!MatchesAll(tr.annotations(), query.predicates)) continue;
    if (query.consumes) {
      bool accepts = false;
      for (const FormalArg& arg : tr.args()) {
        if (arg.is_string() || !DirectionReads(arg.direction)) continue;
        if (types.ConformsToAny(*query.consumes, arg.types)) {
          accepts = true;
          break;
        }
      }
      if (!accepts) continue;
    }
    if (query.produces) {
      bool yields = false;
      for (const FormalArg& arg : tr.args()) {
        if (arg.is_string() || !DirectionWrites(arg.direction)) continue;
        if (arg.types.empty()) {
          yields = query.produces->IsAny();
        } else {
          for (const DatasetType& t : arg.types) {
            if (types.Conforms(t, *query.produces)) {
              yields = true;
              break;
            }
          }
        }
        if (yields) break;
      }
      if (!yields) continue;
    }
    out.Add(name, it->id);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return std::move(out).Build(snap_);
}

std::vector<CatalogView::Posting> CatalogView::DerivationPostings(
    const DerivationQuery& query, bool with_drivers) const {
  std::vector<Posting> postings;
  if (!query.transformation.empty()) {
    Posting p;
    p.path = AccessPath::kTransformationIndex;
    if (with_drivers) p.driver = "transformation " + query.transformation;
    // A query name matches either the qualified or the bare form; the
    // union of both maps' posting lists is exactly that predicate.
    Id tr_id = snap_->symbols.FindId(query.transformation);
    if (tr_id == SymbolTable::kNoSymbol) {
      p.ids = EmptyPosting();
    } else {
      const PostingList& qualified =
          LookupPosting(*snap_->by_transformation, tr_id);
      const PostingList& bare =
          LookupPosting(*snap_->by_bare_transformation, tr_id);
      if (bare->empty()) {
        p.ids = qualified;
      } else if (qualified->empty()) {
        p.ids = bare;
      } else {
        p.ids = std::make_shared<const PostingBlocks>(
            PostingBlocks::Union(*qualified, *bare));
      }
    }
    postings.push_back(std::move(p));
  }
  if (!query.reads_dataset.empty()) {
    Posting p;
    p.path = AccessPath::kReadsIndex;
    if (with_drivers) p.driver = "reads " + query.reads_dataset;
    Id ds_id = snap_->symbols.FindId(query.reads_dataset);
    p.ids = ds_id == SymbolTable::kNoSymbol
                ? EmptyPosting()
                : LookupPosting(*snap_->consumers, ds_id);
    postings.push_back(std::move(p));
  }
  if (!query.writes_dataset.empty()) {
    Posting p;
    p.path = AccessPath::kWritesIndex;
    if (with_drivers) p.driver = "writes " + query.writes_dataset;
    Id ds_id = snap_->symbols.FindId(query.writes_dataset);
    p.ids = ds_id == SymbolTable::kNoSymbol
                ? EmptyPosting()
                : LookupPosting(*snap_->producers, ds_id);
    postings.push_back(std::move(p));
  }
  return postings;
}

NameList CatalogView::FindDerivations(const DerivationQuery& query) const {
  std::vector<Posting> postings = DerivationPostings(query, /*with_drivers=*/false);
  if (!postings.empty()) {
    // The posting lists answer the transformation/reads/writes
    // conditions exactly, so the residual covers only prefix and
    // annotation predicates — and vanishes when neither is present.
    const bool exact = query.name_prefix.empty() && query.predicates.empty();
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    const auto& dv_rows = *snap_->derivations;
    size_t reserve_hint;
    std::vector<Id> candidates;
    if (postings.size() == 1) {
      reserve_hint = postings[0].ids->distinct();
    } else {
      bool short_circuited = false;
      candidates = IntersectSorted(postings, &short_circuited);
      reserve_hint = candidates.size();
    }
    if (query.limit != 0) reserve_hint = std::min(query.limit, reserve_hint);
    PinnedListBuilder out(reserve_hint);
    bool done = false;
    auto take_row = [&](uint32_t row) {
      if (done) return;
      std::string_view name = dv_rows[row].name;
      if (!exact) {
        if (!query.name_prefix.empty() &&
            !StartsWith(name, query.name_prefix)) {
          return;
        }
        if (!MatchesAll(dv_rows[row].object->annotations(),
                        query.predicates)) {
          return;
        }
      }
      out.Add(name, dv_rows[row].id);
      if (query.limit != 0 && out.size() >= query.limit) done = true;
    };
    if (postings.size() == 1) {
      const PostingBlocks& only = *postings[0].ids;
      EmitRowsInNameOrder(only.distinct(), *snap_->derivation_row_of_id,
                          dv_rows.size(),
                          [&only](auto&& emit) { only.ForEach(emit); },
                          take_row);
    } else {
      EmitRowsInNameOrder(candidates.size(), *snap_->derivation_row_of_id,
                          dv_rows.size(),
                          [&candidates](auto&& emit) {
                            for (Id id : candidates) emit(id);
                          },
                          take_row);
    }
    return std::move(out).Build(snap_);
  }

  auto residual = [&query](std::string_view name, const Derivation& dv) {
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      return false;
    }
    return MatchesAll(dv.annotations(), query.predicates);
  };
  const auto& rows = *snap_->derivations;
  auto it = query.name_prefix.empty()
                ? rows.begin()
                : std::lower_bound(
                      rows.begin(), rows.end(),
                      std::string_view(query.name_prefix),
                      [](const CatalogSnapshot::Row<Derivation>& row,
                         std::string_view target) { return row.name < target; });
  PinnedListBuilder out(query.limit != 0 ? query.limit : rows.size());
  for (; it != rows.end(); ++it) {
    if (!query.name_prefix.empty() &&
        !StartsWith(it->name, query.name_prefix)) {
      break;
    }
    if (!residual(it->name, *it->object)) continue;
    out.Add(it->name, it->id);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return std::move(out).Build(snap_);
}

QueryPlan CatalogView::ExplainFindDerivations(
    const DerivationQuery& query) const {
  QueryPlan plan;
  std::vector<Posting> postings = DerivationPostings(query, /*with_drivers=*/true);
  if (!postings.empty()) {
    plan.posting_lists = postings.size();
    plan.exact = query.name_prefix.empty() && query.predicates.empty();
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    plan.path = postings[0].path;
    plan.driver = postings[0].driver;
    plan.estimated_candidates = postings[0].ids->size();
    plan.order.reserve(postings.size());
    for (const Posting& p : postings) {
      plan.order.push_back({p.path, p.driver, p.ids->size()});
    }
    bool short_circuited = false;
    plan.actual_candidates = IntersectSorted(postings, &short_circuited).size();
    plan.short_circuited = short_circuited;
    return plan;
  }
  if (!query.name_prefix.empty()) {
    plan.path = AccessPath::kNamePrefixRange;
    plan.driver = "prefix " + query.name_prefix;
    plan.estimated_candidates = snap_->derivations->size();  // upper bound
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  plan.path = AccessPath::kFullScan;
  plan.driver = "derivations";
  plan.estimated_candidates = snap_->derivations->size();
  plan.actual_candidates = plan.estimated_candidates;
  return plan;
}

// ---------------------------------------------------------------------
// Enumeration & changelog
// ---------------------------------------------------------------------

NameList CatalogView::AllDatasetNames() const {
  return RowNames(snap_, *snap_->datasets);
}
NameList CatalogView::AllTransformationNames() const {
  return RowNames(snap_, *snap_->transformations);
}
NameList CatalogView::AllDerivationNames() const {
  return RowNames(snap_, *snap_->derivations);
}

uint64_t CatalogView::changelog_floor() const {
  const auto& log = *snap_->changelog;
  return log.empty() ? snap_->version : log.front()->version - 1;
}

Result<std::vector<CatalogChange>> CatalogView::ChangesSince(
    uint64_t since_version) const {
  const uint64_t version = snap_->version;
  if (since_version > version) {
    return Status::InvalidArgument(
        "since_version " + std::to_string(since_version) +
        " is ahead of catalog version " + std::to_string(version));
  }
  if (since_version == version) return std::vector<CatalogChange>{};
  const auto& log = *snap_->changelog;
  // Versions in the window are consecutive (batches share one version
  // and are trimmed as whole groups), so the delta is gap-free iff the
  // window reaches back to since_version + 1.
  if (log.empty() || log.front()->version > since_version + 1) {
    return Status::FailedPrecondition(
        "changelog window starts at version " +
        std::to_string(changelog_floor()) + ", cannot answer since " +
        std::to_string(since_version));
  }
  auto it = std::lower_bound(
      log.begin(), log.end(), since_version + 1,
      [](const std::shared_ptr<const CatalogChange>& c, uint64_t v) {
        return c->version < v;
      });
  std::vector<CatalogChange> out;
  out.reserve(static_cast<size_t>(log.end() - it));
  for (; it != log.end(); ++it) out.push_back(**it);
  return out;
}

}  // namespace vdg
