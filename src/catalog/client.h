#ifndef VDG_CATALOG_CLIENT_H_
#define VDG_CATALOG_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"

namespace vdg {

/// Names one catalog object for batched lookup: `kind` is "dataset",
/// "transformation", or "derivation".
struct ObjectKey {
  std::string kind;
  std::string name;
};

/// One batched-lookup result. Exactly one of the optionals is engaged
/// when `status` is OK; a NotFound status is a real answer (the object
/// is gone), not a transport failure.
struct ObjectRecord {
  std::string kind;
  std::string name;
  Status status = Status::OK();
  std::optional<Dataset> dataset;
  std::optional<Transformation> transformation;
  std::optional<Derivation> derivation;
  /// Datasets only: whether it had a valid replica at snapshot time.
  bool materialized = false;
};

/// Everything one hop of a provenance walk needs, fetched as a single
/// server-side compound call: the paper's lineage chains make one
/// round trip per link instead of four (exists / producer / derivation
/// / invocations).
struct ProvenanceStep {
  std::string dataset;
  bool exists = false;
  std::string producer;  // "" for raw inputs
  std::optional<Derivation> derivation;
  std::vector<Invocation> invocations;
};

/// Shard layout of the logical catalog behind a client. A non-sharded
/// client is one implicit shard with fingerprint 0. The fingerprint is
/// a stable hash over the shard authorities and count: any resharding
/// (count change, backend swap) changes it, which is what lets caches
/// and federated indexes detect that per-shard anchors and cached
/// query results belong to a dead topology.
struct ShardTopology {
  uint32_t shard_count = 1;
  uint64_t fingerprint = 0;
};

namespace wire {
struct Request;
struct Response;
}  // namespace wire

/// The service boundary in front of a Virtual Data Catalog (Section 4:
/// every VDC is a *server* reached through vdp:// hyperlinks). All
/// cross-catalog consumers — the registry, federated indexes,
/// provenance walks, promotion, the executor's provenance writes —
/// speak this interface instead of dereferencing VirtualDataCatalog
/// directly, so the same code runs over an in-process adapter
/// (zero-cost, today's behavior) or the wire transport, where round
/// trips can be counted, batched, cached, and made to fail.
///
/// Two equivalent faces, one seam. Every typed read and ApplyBatch has
/// a matching wire::Request kind (src/catalog/wire.h), and `Call`
/// carries any of them:
///  - The base typed methods pack their arguments into a Request, run
///    `Call`, and move the typed body out of the Response. Transports
///    and interceptors (wire, resilient) override only `Call`.
///  - The base `Call` runs wire::Dispatch, which unpacks the Request
///    into the typed methods. Leaf clients (in-process, sharded,
///    caching) override the typed methods and inherit `Call`, which is
///    how a CatalogServer executes decoded requests against them.
/// A class must override one of the two faces; overriding neither
/// recurses forever.
///
/// There is one mutation path. The eight single-op mutations are not
/// part of either face: their base bodies send one CatalogMutation
/// through the virtual ApplyBatch, so a class that routes, caches or
/// retries writes does so once, in ApplyBatch. They stay virtual only
/// for decorators that time or count calls.
///
/// Conventions:
///  - Every read returns Result<> even where the catalog API returns a
///    plain value: a remote call can always fail in transport.
///  - Mutations on a read-only handle fail with PermissionDenied
///    before touching the catalog.
///  - Batched calls (BatchGet, GetProvenanceStep) are semantically
///    equivalent to the matching sequence of point calls; transports
///    may coalesce each into one round trip.
///
/// Lock ordering: clients may hold internal locks (e.g. a cache
/// mutex) while calling into the catalog, and FederatedIndex holds its
/// own lock while calling clients — the global order is
/// index -> client -> catalog, and the catalog lock stays a leaf.
class CatalogClient {
 public:
  virtual ~CatalogClient() = default;

  /// The vdp:// authority this client reaches. Configuration, not a
  /// remote call — never costs a round trip.
  virtual const std::string& authority() const = 0;

  /// True when this handle rejects every mutation.
  virtual bool read_only() const = 0;

  /// The local catalog when this client is a zero-cost in-process
  /// adapter, nullptr for any remote transport. Escape hatch for
  /// callers that provably share an address space (tests, the CLI);
  /// federation code must not use it.
  virtual VirtualDataCatalog* local_catalog() const { return nullptr; }

  /// One request of any kind. The call-level outcome of the catalog is
  /// the Response's status; an error Result means no answer came back
  /// (transport failure, client-side admission bounce, exhausted
  /// retries). The default dispatches to the typed methods
  /// (wire::Dispatch).
  virtual Result<wire::Response> Call(const wire::Request& request);

  // ------------------------------------------------------------------
  // Reads
  // ------------------------------------------------------------------

  /// The catalog's monotonic edit version (staleness poll). For a
  /// sharded client this is the *composite* version — the sum of the
  /// per-shard versions — which is still monotone under mutation but
  /// is not addressable in any single shard's changelog; delta
  /// consumers use ShardVersions/ShardChangesSince instead.
  virtual Result<uint64_t> Version();
  /// The catalog changelog since `since_version` (see
  /// VirtualDataCatalog::ChangesSince for the window contract).
  virtual Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version);

  /// Shard layout behind this client. Defaults to one shard with
  /// fingerprint 0; layering clients (caching, resilient) forward it.
  /// Configuration, not a remote call.
  virtual ShardTopology shard_topology() const { return ShardTopology{}; }

  /// Per-shard versions, indexed by shard. Sums to Version(). The
  /// default adapts any single-shard client.
  virtual Result<std::vector<uint64_t>> ShardVersions();

  /// One shard's changelog since that shard's `since_version` (same
  /// window contract as ChangesSince). Delta consumers anchor to the
  /// version of the last change seen *per shard*; the composite
  /// version is only a staleness poll.
  virtual Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version);

  virtual Result<Dataset> GetDataset(std::string_view name);
  virtual Result<Transformation> GetTransformation(std::string_view name);
  virtual Result<Derivation> GetDerivation(std::string_view name);
  virtual Result<bool> HasDataset(std::string_view name);
  virtual Result<bool> IsMaterialized(std::string_view dataset);
  virtual Result<std::string> ProducerOf(std::string_view dataset);
  virtual Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation);

  /// Discovery results are NameLists: immutable shared lists whose
  /// views stay valid for the list's lifetime regardless of transport
  /// (in-process lists pin the answering snapshot; wire transports pin
  /// the decoded response arena; caches share one list across hits).
  /// See DESIGN.md §15.
  virtual Result<NameList> FindDatasets(const DatasetQuery& query);
  virtual Result<NameList> FindTransformations(
      const TransformationQuery& query);
  virtual Result<NameList> FindDerivations(const DerivationQuery& query);
  /// All object names of `kind` ("dataset"|"transformation"|
  /// "derivation").
  virtual Result<NameList> AllNames(std::string_view kind);

  /// Type conformance judged by the owning catalog's type universe.
  virtual Result<bool> TypeConforms(const DatasetType& type,
                                    const DatasetType& against);

  // ------------------------------------------------------------------
  // Batched reads — one round trip regardless of count
  // ------------------------------------------------------------------

  /// Snapshots of many objects in one call; the result is positionally
  /// aligned with `keys` and per-entry NotFound is reported in the
  /// record, not as a call failure.
  virtual Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys);

  /// One provenance hop (exists + producer + derivation + invocations)
  /// as a single compound call. A missing dataset is reported via
  /// `exists = false`, not an error.
  virtual Result<ProvenanceStep> GetProvenanceStep(std::string_view dataset);

  // ------------------------------------------------------------------
  // Mutations (PermissionDenied on read-only handles). Each single-op
  // mutation is a one-op ApplyBatch; its status is the batch's
  // first_error, which includes a failed journal flush.
  // ------------------------------------------------------------------

  virtual Status DefineDataset(Dataset dataset);
  virtual Status DefineTransformation(Transformation transformation);
  virtual Status DefineDerivation(Derivation derivation);
  virtual Status Annotate(std::string_view kind, std::string_view name,
                          std::string_view key, AttributeValue value);
  virtual Result<std::string> AddReplica(Replica replica);
  virtual Result<std::string> RecordInvocation(Invocation invocation);
  virtual Status SetDatasetSize(std::string_view name, int64_t size_bytes);
  virtual Status InvalidateReplica(std::string_view id);

  /// Applies a group of mutations. Semantically equivalent to issuing
  /// the ops one by one (with cross-op id references resolved — see
  /// CatalogMutation); the whole batch is one request, and the catalog
  /// commits it under one lock acquisition, one version bump, and one
  /// journal flush.
  virtual Result<BatchResult> ApplyBatch(
      const std::vector<CatalogMutation>& mutations,
      const BatchOptions& options = {});
};

/// The zero-cost adapter: forwards every call straight into an
/// in-process VirtualDataCatalog, preserving the pre-boundary behavior
/// bit-for-bit. Thread-safe to exactly the extent the catalog is (the
/// adapter itself keeps no mutable state).
class InProcessCatalogClient : public CatalogClient {
 public:
  /// Read-write (or explicitly read-only) handle on a local catalog.
  explicit InProcessCatalogClient(VirtualDataCatalog* catalog,
                                  bool read_only = false);
  /// A const catalog yields a read-only handle: every mutation is
  /// rejected before the underlying object is ever touched, so the
  /// internal const_cast can never be observed.
  explicit InProcessCatalogClient(const VirtualDataCatalog* catalog);

  const std::string& authority() const override { return authority_; }
  bool read_only() const override { return read_only_; }
  VirtualDataCatalog* local_catalog() const override {
    return read_only_ ? nullptr : catalog_;
  }

  Result<uint64_t> Version() override;
  Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) override;
  Result<Dataset> GetDataset(std::string_view name) override;
  Result<Transformation> GetTransformation(std::string_view name) override;
  Result<Derivation> GetDerivation(std::string_view name) override;
  Result<bool> HasDataset(std::string_view name) override;
  Result<bool> IsMaterialized(std::string_view dataset) override;
  Result<std::string> ProducerOf(std::string_view dataset) override;
  Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation) override;
  Result<NameList> FindDatasets(const DatasetQuery& query) override;
  Result<NameList> FindTransformations(
      const TransformationQuery& query) override;
  Result<NameList> FindDerivations(const DerivationQuery& query) override;
  Result<NameList> AllNames(std::string_view kind) override;
  Result<bool> TypeConforms(const DatasetType& type,
                            const DatasetType& against) override;
  Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys) override;
  Result<ProvenanceStep> GetProvenanceStep(std::string_view dataset) override;

  /// Forwards to VirtualDataCatalog::ApplyBatch: one lock, one version
  /// bump, one journal flush for the whole group.
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options = {}) override;

 private:
  Status CheckWritable() const;

  VirtualDataCatalog* catalog_;
  std::string authority_;
  bool read_only_;
};

}  // namespace vdg

#endif  // VDG_CATALOG_CLIENT_H_
