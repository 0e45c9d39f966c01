#include "catalog/wire.h"

#include <bit>
#include <cstring>

#include "common/hash.h"

namespace vdg {
namespace wire {

namespace {

constexpr char kMagic[4] = {'V', 'D', 'G', 'W'};
constexpr uint8_t kFlagResponse = 0x01;

// -----------------------------------------------------------------------
// Primitive writer: appends fixed-width little-endian fields to a string.
// -----------------------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Doubles travel as raw IEEE-754 bits: the round trip is bit-exact
  /// even for values text formatting would distort.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

  void PutCount(size_t n) { PutU32(static_cast<uint32_t>(n)); }

 private:
  std::string* out_;
};

// -----------------------------------------------------------------------
// Primitive reader: bounds-checked cursor over the payload bytes. Every
// read fails with ParseError instead of walking past the end, so a
// truncated or bit-flipped payload can never crash the decoder.
// -----------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() {
    if (pos_ >= data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<bool> ReadBool() {
    VDG_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
    if (v > 1) return Status::ParseError("wire: bool byte out of range");
    return v == 1;
  }

  Result<uint32_t> ReadU32() {
    if (data_.size() - pos_ < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    if (data_.size() - pos_ < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<int64_t> ReadI64() {
    VDG_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    return static_cast<int64_t>(v);
  }

  Result<double> ReadDouble() {
    VDG_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    return std::bit_cast<double>(bits);
  }

  Result<std::string> ReadString() {
    VDG_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (data_.size() - pos_ < len) return Truncated("string body");
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// Zero-copy read: a view into the payload buffer itself, valid only
  /// while the frame bytes stay alive. Callers that outlive the frame
  /// must copy (the name-list decoder appends into its arena).
  Result<std::string_view> ReadStringView() {
    VDG_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (data_.size() - pos_ < len) return Truncated("string body");
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }

  /// Element counts are sanity-bounded by the bytes actually present:
  /// every element costs at least one byte, so a count larger than the
  /// remaining payload is corruption, not a huge message.
  Result<size_t> ReadCount() {
    VDG_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
    if (n > data_.size() - pos_) {
      return Status::ParseError("wire: element count exceeds payload size");
    }
    return static_cast<size_t>(n);
  }

  bool AtEnd() const { return pos_ == data_.size(); }

  /// Payload decoders call this last: bytes beyond the decoded message
  /// mean the payload and the frame kind disagree.
  Status ExpectEnd() const {
    if (!AtEnd()) {
      return Status::ParseError("wire: trailing bytes after message");
    }
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::ParseError(std::string("wire: truncated payload reading ") +
                              what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// -----------------------------------------------------------------------
// Field codecs, in dependency order.
// -----------------------------------------------------------------------

void PutStatus(Writer& w, const Status& s) {
  w.PutU8(static_cast<uint8_t>(s.code()));
  w.PutString(s.message());
}

// Result<Status> is ill-formed (value and error constructors collide),
// so decoded statuses land in an out-parameter.
Status ReadStatus(Reader& r, Status* out) {
  VDG_ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
  if (code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Status::ParseError("wire: unknown status code");
  }
  VDG_ASSIGN_OR_RETURN(std::string msg, r.ReadString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

void PutAttributeValue(Writer& w, const AttributeValue& v) {
  w.PutU8(static_cast<uint8_t>(v.TypeTag()));
  if (v.is_string()) {
    w.PutString(v.AsString());
  } else if (v.is_int()) {
    w.PutI64(v.AsInt());
  } else if (v.is_double()) {
    w.PutDouble(v.AsDouble());
  } else {
    w.PutBool(v.AsBool());
  }
}

Result<AttributeValue> ReadAttributeValue(Reader& r) {
  VDG_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
  switch (tag) {
    case 's': {
      VDG_ASSIGN_OR_RETURN(std::string s, r.ReadString());
      return AttributeValue(std::move(s));
    }
    case 'i': {
      VDG_ASSIGN_OR_RETURN(int64_t i, r.ReadI64());
      return AttributeValue(i);
    }
    case 'd': {
      VDG_ASSIGN_OR_RETURN(double d, r.ReadDouble());
      return AttributeValue(d);
    }
    case 'b': {
      VDG_ASSIGN_OR_RETURN(bool b, r.ReadBool());
      return AttributeValue(b);
    }
    default:
      return Status::ParseError("wire: unknown attribute value tag");
  }
}

void PutAttributeSet(Writer& w, const AttributeSet& attrs) {
  w.PutCount(attrs.size());
  for (const auto& [key, value] : attrs) {
    w.PutString(key);
    PutAttributeValue(w, value);
  }
}

Result<AttributeSet> ReadAttributeSet(Reader& r) {
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  AttributeSet attrs;
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    VDG_ASSIGN_OR_RETURN(AttributeValue value, ReadAttributeValue(r));
    attrs.Set(key, std::move(value));
  }
  return attrs;
}

void PutDatasetType(Writer& w, const DatasetType& t) {
  w.PutString(t.content);
  w.PutString(t.format);
  w.PutString(t.encoding);
}

Result<DatasetType> ReadDatasetType(Reader& r) {
  DatasetType t;
  VDG_ASSIGN_OR_RETURN(t.content, r.ReadString());
  VDG_ASSIGN_OR_RETURN(t.format, r.ReadString());
  VDG_ASSIGN_OR_RETURN(t.encoding, r.ReadString());
  return t;
}

template <typename T, typename PutFn>
void PutOptional(Writer& w, const std::optional<T>& opt, PutFn put) {
  w.PutBool(opt.has_value());
  if (opt.has_value()) put(w, *opt);
}

void PutOptionalString(Writer& w, const std::optional<std::string>& opt) {
  PutOptional(w, opt,
              [](Writer& w, const std::string& s) { w.PutString(s); });
}

Result<std::optional<std::string>> ReadOptionalString(Reader& r) {
  VDG_ASSIGN_OR_RETURN(bool present, r.ReadBool());
  if (!present) return std::optional<std::string>();
  VDG_ASSIGN_OR_RETURN(std::string s, r.ReadString());
  return std::optional<std::string>(std::move(s));
}

void PutDirection(Writer& w, ArgDirection dir) {
  w.PutU8(static_cast<uint8_t>(dir));
}

Result<ArgDirection> ReadDirection(Reader& r) {
  VDG_ASSIGN_OR_RETURN(uint8_t v, r.ReadU8());
  if (v > static_cast<uint8_t>(ArgDirection::kNone)) {
    return Status::ParseError("wire: argument direction out of range");
  }
  return static_cast<ArgDirection>(v);
}

void PutOptionalDirection(Writer& w, const std::optional<ArgDirection>& opt) {
  PutOptional(w, opt, PutDirection);
}

Result<std::optional<ArgDirection>> ReadOptionalDirection(Reader& r) {
  VDG_ASSIGN_OR_RETURN(bool present, r.ReadBool());
  if (!present) return std::optional<ArgDirection>();
  VDG_ASSIGN_OR_RETURN(ArgDirection dir, ReadDirection(r));
  return std::optional<ArgDirection>(dir);
}

void PutStringVec(Writer& w, const std::vector<std::string>& v) {
  w.PutCount(v.size());
  for (const auto& s : v) w.PutString(s);
}

Result<std::vector<std::string>> ReadStringVec(Reader& r) {
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  std::vector<std::string> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(std::string s, r.ReadString());
    v.push_back(std::move(s));
  }
  return v;
}

void PutDescriptor(Writer& w, const DatasetDescriptor& d) {
  w.PutString(d.schema);
  PutAttributeSet(w, d.fields);
}

Result<DatasetDescriptor> ReadDescriptor(Reader& r) {
  DatasetDescriptor d;
  VDG_ASSIGN_OR_RETURN(d.schema, r.ReadString());
  VDG_ASSIGN_OR_RETURN(d.fields, ReadAttributeSet(r));
  return d;
}

void PutDataset(Writer& w, const Dataset& d) {
  w.PutString(d.name);
  PutDatasetType(w, d.type);
  PutDescriptor(w, d.descriptor);
  w.PutI64(d.size_bytes);
  w.PutString(d.producer);
  PutAttributeSet(w, d.annotations);
}

Result<Dataset> ReadDataset(Reader& r) {
  Dataset d;
  VDG_ASSIGN_OR_RETURN(d.name, r.ReadString());
  VDG_ASSIGN_OR_RETURN(d.type, ReadDatasetType(r));
  VDG_ASSIGN_OR_RETURN(d.descriptor, ReadDescriptor(r));
  VDG_ASSIGN_OR_RETURN(d.size_bytes, r.ReadI64());
  VDG_ASSIGN_OR_RETURN(d.producer, r.ReadString());
  VDG_ASSIGN_OR_RETURN(d.annotations, ReadAttributeSet(r));
  return d;
}

void PutReplica(Writer& w, const Replica& rep) {
  w.PutString(rep.id);
  w.PutString(rep.dataset);
  w.PutString(rep.site);
  w.PutString(rep.storage_element);
  w.PutString(rep.physical_path);
  w.PutI64(rep.size_bytes);
  w.PutDouble(rep.created_at);
  w.PutBool(rep.valid);
  PutAttributeSet(w, rep.annotations);
}

Result<Replica> ReadReplica(Reader& r) {
  Replica rep;
  VDG_ASSIGN_OR_RETURN(rep.id, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rep.dataset, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rep.site, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rep.storage_element, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rep.physical_path, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rep.size_bytes, r.ReadI64());
  VDG_ASSIGN_OR_RETURN(rep.created_at, r.ReadDouble());
  VDG_ASSIGN_OR_RETURN(rep.valid, r.ReadBool());
  VDG_ASSIGN_OR_RETURN(rep.annotations, ReadAttributeSet(r));
  return rep;
}

void PutFormalArg(Writer& w, const FormalArg& a) {
  w.PutString(a.name);
  PutDirection(w, a.direction);
  w.PutCount(a.types.size());
  for (const auto& t : a.types) PutDatasetType(w, t);
  PutOptionalString(w, a.default_string);
  PutOptionalString(w, a.default_dataset);
}

Result<FormalArg> ReadFormalArg(Reader& r) {
  FormalArg a;
  VDG_ASSIGN_OR_RETURN(a.name, r.ReadString());
  VDG_ASSIGN_OR_RETURN(a.direction, ReadDirection(r));
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  a.types.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(DatasetType t, ReadDatasetType(r));
    a.types.push_back(std::move(t));
  }
  VDG_ASSIGN_OR_RETURN(a.default_string, ReadOptionalString(r));
  VDG_ASSIGN_OR_RETURN(a.default_dataset, ReadOptionalString(r));
  return a;
}

void PutTemplatePiece(Writer& w, const TemplatePiece& p) {
  w.PutU8(static_cast<uint8_t>(p.kind));
  w.PutString(p.text);
  PutOptionalDirection(w, p.ref_direction);
}

Result<TemplatePiece> ReadTemplatePiece(Reader& r) {
  VDG_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > static_cast<uint8_t>(TemplatePiece::Kind::kArgRef)) {
    return Status::ParseError("wire: template piece kind out of range");
  }
  TemplatePiece p;
  p.kind = static_cast<TemplatePiece::Kind>(kind);
  VDG_ASSIGN_OR_RETURN(p.text, r.ReadString());
  VDG_ASSIGN_OR_RETURN(p.ref_direction, ReadOptionalDirection(r));
  return p;
}

void PutTemplateExpr(Writer& w, const TemplateExpr& e) {
  w.PutCount(e.size());
  for (const auto& p : e) PutTemplatePiece(w, p);
}

Result<TemplateExpr> ReadTemplateExpr(Reader& r) {
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  TemplateExpr e;
  e.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(TemplatePiece p, ReadTemplatePiece(r));
    e.push_back(std::move(p));
  }
  return e;
}

void PutTemplateMap(Writer& w,
                    const std::map<std::string, TemplateExpr>& m) {
  w.PutCount(m.size());
  for (const auto& [key, expr] : m) {
    w.PutString(key);
    PutTemplateExpr(w, expr);
  }
}

void PutTransformation(Writer& w, const Transformation& t) {
  w.PutString(t.name());
  w.PutU8(static_cast<uint8_t>(t.kind()));
  w.PutString(t.version());
  w.PutCount(t.args().size());
  for (const auto& a : t.args()) PutFormalArg(w, a);
  w.PutString(t.executable());
  w.PutCount(t.argument_templates().size());
  for (const auto& at : t.argument_templates()) {
    w.PutString(at.name);
    PutTemplateExpr(w, at.expr);
  }
  PutTemplateMap(w, t.env());
  PutTemplateMap(w, t.profile());
  w.PutCount(t.calls().size());
  for (const auto& c : t.calls()) {
    w.PutString(c.callee);
    w.PutCount(c.bindings.size());
    for (const auto& [formal, piece] : c.bindings) {
      w.PutString(formal);
      PutTemplatePiece(w, piece);
    }
  }
  PutAttributeSet(w, t.annotations());
}

Result<Transformation> ReadTransformation(Reader& r) {
  Transformation t;
  VDG_ASSIGN_OR_RETURN(std::string name, r.ReadString());
  t.set_name(std::move(name));
  VDG_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > static_cast<uint8_t>(Transformation::Kind::kCompound)) {
    return Status::ParseError("wire: transformation kind out of range");
  }
  t.set_kind(static_cast<Transformation::Kind>(kind));
  VDG_ASSIGN_OR_RETURN(std::string version, r.ReadString());
  t.set_version(std::move(version));
  VDG_ASSIGN_OR_RETURN(size_t nargs, r.ReadCount());
  for (size_t i = 0; i < nargs; ++i) {
    VDG_ASSIGN_OR_RETURN(FormalArg a, ReadFormalArg(r));
    // Bypass AddArg validation: the wire layer reproduces what was
    // sent; semantic checks belong to the catalog, not the codec.
    t.mutable_args().push_back(std::move(a));
  }
  VDG_ASSIGN_OR_RETURN(std::string exe, r.ReadString());
  t.set_executable(std::move(exe));
  VDG_ASSIGN_OR_RETURN(size_t ntmpl, r.ReadCount());
  for (size_t i = 0; i < ntmpl; ++i) {
    ArgumentTemplate at;
    VDG_ASSIGN_OR_RETURN(at.name, r.ReadString());
    VDG_ASSIGN_OR_RETURN(at.expr, ReadTemplateExpr(r));
    t.AddArgumentTemplate(std::move(at));
  }
  VDG_ASSIGN_OR_RETURN(size_t nenv, r.ReadCount());
  for (size_t i = 0; i < nenv; ++i) {
    VDG_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    VDG_ASSIGN_OR_RETURN(TemplateExpr expr, ReadTemplateExpr(r));
    t.SetEnv(std::move(key), std::move(expr));
  }
  VDG_ASSIGN_OR_RETURN(size_t nprof, r.ReadCount());
  for (size_t i = 0; i < nprof; ++i) {
    VDG_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    VDG_ASSIGN_OR_RETURN(TemplateExpr expr, ReadTemplateExpr(r));
    t.SetProfile(std::move(key), std::move(expr));
  }
  VDG_ASSIGN_OR_RETURN(size_t ncalls, r.ReadCount());
  for (size_t i = 0; i < ncalls; ++i) {
    CompoundCall c;
    VDG_ASSIGN_OR_RETURN(c.callee, r.ReadString());
    VDG_ASSIGN_OR_RETURN(size_t nbind, r.ReadCount());
    c.bindings.reserve(nbind);
    for (size_t j = 0; j < nbind; ++j) {
      VDG_ASSIGN_OR_RETURN(std::string formal, r.ReadString());
      VDG_ASSIGN_OR_RETURN(TemplatePiece piece, ReadTemplatePiece(r));
      c.bindings.emplace_back(std::move(formal), std::move(piece));
    }
    t.AddCall(std::move(c));
  }
  VDG_ASSIGN_OR_RETURN(t.annotations(), ReadAttributeSet(r));
  return t;
}

void PutActualArg(Writer& w, const ActualArg& a) {
  w.PutString(a.formal);
  PutOptionalString(w, a.string_value);
  PutOptionalString(w, a.dataset);
  PutOptionalDirection(w, a.direction);
}

Result<ActualArg> ReadActualArg(Reader& r) {
  ActualArg a;
  VDG_ASSIGN_OR_RETURN(a.formal, r.ReadString());
  VDG_ASSIGN_OR_RETURN(a.string_value, ReadOptionalString(r));
  VDG_ASSIGN_OR_RETURN(a.dataset, ReadOptionalString(r));
  VDG_ASSIGN_OR_RETURN(a.direction, ReadOptionalDirection(r));
  return a;
}

void PutDerivation(Writer& w, const Derivation& d) {
  w.PutString(d.name());
  w.PutString(d.transformation_namespace());
  w.PutString(d.transformation());
  w.PutCount(d.args().size());
  for (const auto& a : d.args()) PutActualArg(w, a);
  w.PutCount(d.env_overrides().size());
  for (const auto& [key, value] : d.env_overrides()) {
    w.PutString(key);
    w.PutString(value);
  }
  PutAttributeSet(w, d.annotations());
}

Result<Derivation> ReadDerivation(Reader& r) {
  Derivation d;
  VDG_ASSIGN_OR_RETURN(std::string name, r.ReadString());
  d.set_name(std::move(name));
  VDG_ASSIGN_OR_RETURN(std::string ns, r.ReadString());
  d.set_transformation_namespace(std::move(ns));
  VDG_ASSIGN_OR_RETURN(std::string tr, r.ReadString());
  d.set_transformation(std::move(tr));
  VDG_ASSIGN_OR_RETURN(size_t nargs, r.ReadCount());
  for (size_t i = 0; i < nargs; ++i) {
    VDG_ASSIGN_OR_RETURN(ActualArg a, ReadActualArg(r));
    VDG_RETURN_IF_ERROR(d.AddArg(std::move(a)));
  }
  VDG_ASSIGN_OR_RETURN(size_t nenv, r.ReadCount());
  for (size_t i = 0; i < nenv; ++i) {
    VDG_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    VDG_ASSIGN_OR_RETURN(std::string value, r.ReadString());
    d.SetEnvOverride(std::move(key), std::move(value));
  }
  VDG_ASSIGN_OR_RETURN(d.annotations(), ReadAttributeSet(r));
  return d;
}

void PutInvocation(Writer& w, const Invocation& inv) {
  w.PutString(inv.id);
  w.PutString(inv.derivation);
  w.PutString(inv.context.site);
  w.PutString(inv.context.host);
  w.PutString(inv.context.os);
  w.PutString(inv.context.architecture);
  w.PutDouble(inv.start_time);
  w.PutDouble(inv.duration_s);
  w.PutDouble(inv.cpu_seconds);
  w.PutI64(inv.peak_memory_bytes);
  w.PutU32(static_cast<uint32_t>(inv.exit_code));
  w.PutBool(inv.succeeded);
  PutStringVec(w, inv.consumed_replicas);
  PutStringVec(w, inv.produced_replicas);
  PutAttributeSet(w, inv.annotations);
}

Result<Invocation> ReadInvocation(Reader& r) {
  Invocation inv;
  VDG_ASSIGN_OR_RETURN(inv.id, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.derivation, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.context.site, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.context.host, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.context.os, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.context.architecture, r.ReadString());
  VDG_ASSIGN_OR_RETURN(inv.start_time, r.ReadDouble());
  VDG_ASSIGN_OR_RETURN(inv.duration_s, r.ReadDouble());
  VDG_ASSIGN_OR_RETURN(inv.cpu_seconds, r.ReadDouble());
  VDG_ASSIGN_OR_RETURN(inv.peak_memory_bytes, r.ReadI64());
  VDG_ASSIGN_OR_RETURN(uint32_t exit_code, r.ReadU32());
  inv.exit_code = static_cast<int>(static_cast<int32_t>(exit_code));
  VDG_ASSIGN_OR_RETURN(inv.succeeded, r.ReadBool());
  VDG_ASSIGN_OR_RETURN(inv.consumed_replicas, ReadStringVec(r));
  VDG_ASSIGN_OR_RETURN(inv.produced_replicas, ReadStringVec(r));
  VDG_ASSIGN_OR_RETURN(inv.annotations, ReadAttributeSet(r));
  return inv;
}

void PutCatalogChange(Writer& w, const CatalogChange& c) {
  w.PutU64(c.version);
  w.PutU8(static_cast<uint8_t>(c.op));
  w.PutString(c.kind);
  w.PutString(c.name);
}

Result<CatalogChange> ReadCatalogChange(Reader& r) {
  CatalogChange c;
  VDG_ASSIGN_OR_RETURN(c.version, r.ReadU64());
  VDG_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
  c.op = static_cast<char>(op);
  VDG_ASSIGN_OR_RETURN(c.kind, r.ReadString());
  VDG_ASSIGN_OR_RETURN(c.name, r.ReadString());
  return c;
}

void PutPredicate(Writer& w, const AttributePredicate& p) {
  w.PutString(p.key);
  w.PutU8(static_cast<uint8_t>(p.op));
  PutAttributeValue(w, p.operand);
}

Result<AttributePredicate> ReadPredicate(Reader& r) {
  AttributePredicate p;
  VDG_ASSIGN_OR_RETURN(p.key, r.ReadString());
  VDG_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
  if (op > static_cast<uint8_t>(PredicateOp::kExists)) {
    return Status::ParseError("wire: predicate op out of range");
  }
  p.op = static_cast<PredicateOp>(op);
  VDG_ASSIGN_OR_RETURN(p.operand, ReadAttributeValue(r));
  return p;
}

void PutPredicates(Writer& w, const std::vector<AttributePredicate>& v) {
  w.PutCount(v.size());
  for (const auto& p : v) PutPredicate(w, p);
}

Result<std::vector<AttributePredicate>> ReadPredicates(Reader& r) {
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  std::vector<AttributePredicate> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(AttributePredicate p, ReadPredicate(r));
    v.push_back(std::move(p));
  }
  return v;
}

void PutOptionalType(Writer& w, const std::optional<DatasetType>& opt) {
  PutOptional(w, opt, PutDatasetType);
}

Result<std::optional<DatasetType>> ReadOptionalType(Reader& r) {
  VDG_ASSIGN_OR_RETURN(bool present, r.ReadBool());
  if (!present) return std::optional<DatasetType>();
  VDG_ASSIGN_OR_RETURN(DatasetType t, ReadDatasetType(r));
  return std::optional<DatasetType>(std::move(t));
}

void PutDatasetQuery(Writer& w, const DatasetQuery& q) {
  PutOptionalType(w, q.type);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutBool(q.require_materialized);
  w.PutBool(q.only_virtual);
  w.PutU64(q.limit);
}

Result<DatasetQuery> ReadDatasetQuery(Reader& r) {
  DatasetQuery q;
  VDG_ASSIGN_OR_RETURN(q.type, ReadOptionalType(r));
  VDG_ASSIGN_OR_RETURN(q.predicates, ReadPredicates(r));
  VDG_ASSIGN_OR_RETURN(q.name_prefix, r.ReadString());
  VDG_ASSIGN_OR_RETURN(q.require_materialized, r.ReadBool());
  VDG_ASSIGN_OR_RETURN(q.only_virtual, r.ReadBool());
  VDG_ASSIGN_OR_RETURN(uint64_t limit, r.ReadU64());
  q.limit = static_cast<size_t>(limit);
  return q;
}

void PutTransformationQuery(Writer& w, const TransformationQuery& q) {
  PutOptionalType(w, q.consumes);
  PutOptionalType(w, q.produces);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

Result<TransformationQuery> ReadTransformationQuery(Reader& r) {
  TransformationQuery q;
  VDG_ASSIGN_OR_RETURN(q.consumes, ReadOptionalType(r));
  VDG_ASSIGN_OR_RETURN(q.produces, ReadOptionalType(r));
  VDG_ASSIGN_OR_RETURN(q.predicates, ReadPredicates(r));
  VDG_ASSIGN_OR_RETURN(q.name_prefix, r.ReadString());
  VDG_ASSIGN_OR_RETURN(uint64_t limit, r.ReadU64());
  q.limit = static_cast<size_t>(limit);
  return q;
}

void PutDerivationQuery(Writer& w, const DerivationQuery& q) {
  w.PutString(q.transformation);
  w.PutString(q.reads_dataset);
  w.PutString(q.writes_dataset);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

Result<DerivationQuery> ReadDerivationQuery(Reader& r) {
  DerivationQuery q;
  VDG_ASSIGN_OR_RETURN(q.transformation, r.ReadString());
  VDG_ASSIGN_OR_RETURN(q.reads_dataset, r.ReadString());
  VDG_ASSIGN_OR_RETURN(q.writes_dataset, r.ReadString());
  VDG_ASSIGN_OR_RETURN(q.predicates, ReadPredicates(r));
  VDG_ASSIGN_OR_RETURN(q.name_prefix, r.ReadString());
  VDG_ASSIGN_OR_RETURN(uint64_t limit, r.ReadU64());
  q.limit = static_cast<size_t>(limit);
  return q;
}

void PutObjectRecord(Writer& w, const ObjectRecord& rec) {
  w.PutString(rec.kind);
  w.PutString(rec.name);
  PutStatus(w, rec.status);
  PutOptional(w, rec.dataset, PutDataset);
  PutOptional(w, rec.transformation, PutTransformation);
  PutOptional(w, rec.derivation, PutDerivation);
  w.PutBool(rec.materialized);
}

Result<ObjectRecord> ReadObjectRecord(Reader& r) {
  ObjectRecord rec;
  VDG_ASSIGN_OR_RETURN(rec.kind, r.ReadString());
  VDG_ASSIGN_OR_RETURN(rec.name, r.ReadString());
  VDG_RETURN_IF_ERROR(ReadStatus(r, &rec.status));
  VDG_ASSIGN_OR_RETURN(bool has_ds, r.ReadBool());
  if (has_ds) {
    VDG_ASSIGN_OR_RETURN(Dataset d, ReadDataset(r));
    rec.dataset = std::move(d);
  }
  VDG_ASSIGN_OR_RETURN(bool has_tr, r.ReadBool());
  if (has_tr) {
    VDG_ASSIGN_OR_RETURN(Transformation t, ReadTransformation(r));
    rec.transformation = std::move(t);
  }
  VDG_ASSIGN_OR_RETURN(bool has_dv, r.ReadBool());
  if (has_dv) {
    VDG_ASSIGN_OR_RETURN(Derivation d, ReadDerivation(r));
    rec.derivation = std::move(d);
  }
  VDG_ASSIGN_OR_RETURN(rec.materialized, r.ReadBool());
  return rec;
}

void PutProvenanceStep(Writer& w, const ProvenanceStep& s) {
  w.PutString(s.dataset);
  w.PutBool(s.exists);
  w.PutString(s.producer);
  PutOptional(w, s.derivation, PutDerivation);
  w.PutCount(s.invocations.size());
  for (const auto& inv : s.invocations) PutInvocation(w, inv);
}

Result<ProvenanceStep> ReadProvenanceStep(Reader& r) {
  ProvenanceStep s;
  VDG_ASSIGN_OR_RETURN(s.dataset, r.ReadString());
  VDG_ASSIGN_OR_RETURN(s.exists, r.ReadBool());
  VDG_ASSIGN_OR_RETURN(s.producer, r.ReadString());
  VDG_ASSIGN_OR_RETURN(bool has_dv, r.ReadBool());
  if (has_dv) {
    VDG_ASSIGN_OR_RETURN(Derivation d, ReadDerivation(r));
    s.derivation = std::move(d);
  }
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  s.invocations.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VDG_ASSIGN_OR_RETURN(Invocation inv, ReadInvocation(r));
    s.invocations.push_back(std::move(inv));
  }
  return s;
}

void PutMutation(Writer& w, const CatalogMutation& m) {
  w.PutU8(static_cast<uint8_t>(m.op.index()));
  std::visit(
      [&w](const auto& op) {
        using T = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<T, CatalogMutation::DefineDatasetOp>) {
          PutDataset(w, op.dataset);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineTransformationOp>) {
          PutTransformation(w, op.transformation);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineDerivationOp>) {
          PutDerivation(w, op.derivation);
        } else if constexpr (std::is_same_v<T, CatalogMutation::AnnotateOp>) {
          w.PutString(op.kind);
          w.PutString(op.name);
          w.PutString(op.key);
          PutAttributeValue(w, op.value);
          w.PutBool(op.name_from_op.has_value());
          if (op.name_from_op) w.PutU64(*op.name_from_op);
        } else if constexpr (std::is_same_v<T,
                                            CatalogMutation::AddReplicaOp>) {
          PutReplica(w, op.replica);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::RecordInvocationOp>) {
          PutInvocation(w, op.invocation);
          w.PutCount(op.produced_from_ops.size());
          for (size_t pos : op.produced_from_ops) w.PutU64(pos);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::SetDatasetSizeOp>) {
          w.PutString(op.name);
          w.PutI64(op.size_bytes);
        } else {
          static_assert(
              std::is_same_v<T, CatalogMutation::InvalidateReplicaOp>);
          w.PutString(op.id);
        }
      },
      m.op);
}

Result<CatalogMutation> ReadMutation(Reader& r) {
  VDG_ASSIGN_OR_RETURN(uint8_t index, r.ReadU8());
  switch (index) {
    case 0: {
      VDG_ASSIGN_OR_RETURN(Dataset d, ReadDataset(r));
      return CatalogMutation::DefineDataset(std::move(d));
    }
    case 1: {
      VDG_ASSIGN_OR_RETURN(Transformation t, ReadTransformation(r));
      return CatalogMutation::DefineTransformation(std::move(t));
    }
    case 2: {
      VDG_ASSIGN_OR_RETURN(Derivation d, ReadDerivation(r));
      return CatalogMutation::DefineDerivation(std::move(d));
    }
    case 3: {
      CatalogMutation::AnnotateOp op;
      VDG_ASSIGN_OR_RETURN(op.kind, r.ReadString());
      VDG_ASSIGN_OR_RETURN(op.name, r.ReadString());
      VDG_ASSIGN_OR_RETURN(op.key, r.ReadString());
      VDG_ASSIGN_OR_RETURN(op.value, ReadAttributeValue(r));
      VDG_ASSIGN_OR_RETURN(bool has_from, r.ReadBool());
      if (has_from) {
        VDG_ASSIGN_OR_RETURN(uint64_t pos, r.ReadU64());
        op.name_from_op = static_cast<size_t>(pos);
      }
      return CatalogMutation{std::move(op)};
    }
    case 4: {
      VDG_ASSIGN_OR_RETURN(Replica rep, ReadReplica(r));
      return CatalogMutation::AddReplica(std::move(rep));
    }
    case 5: {
      CatalogMutation::RecordInvocationOp op;
      VDG_ASSIGN_OR_RETURN(op.invocation, ReadInvocation(r));
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      op.produced_from_ops.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(uint64_t pos, r.ReadU64());
        op.produced_from_ops.push_back(static_cast<size_t>(pos));
      }
      return CatalogMutation{std::move(op)};
    }
    case 6: {
      CatalogMutation::SetDatasetSizeOp op;
      VDG_ASSIGN_OR_RETURN(op.name, r.ReadString());
      VDG_ASSIGN_OR_RETURN(op.size_bytes, r.ReadI64());
      return CatalogMutation{std::move(op)};
    }
    case 7: {
      VDG_ASSIGN_OR_RETURN(std::string id, r.ReadString());
      return CatalogMutation::InvalidateReplica(std::move(id));
    }
    default:
      return Status::ParseError("wire: unknown mutation op index");
  }
}

void PutBatchResult(Writer& w, const BatchResult& b) {
  w.PutCount(b.statuses.size());
  for (const auto& s : b.statuses) PutStatus(w, s);
  PutStringVec(w, b.assigned_ids);
  w.PutU64(b.applied);
  w.PutU64(b.version);
  PutStatus(w, b.first_error);
}

Result<BatchResult> ReadBatchResult(Reader& r) {
  BatchResult b;
  VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
  b.statuses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Status s;
    VDG_RETURN_IF_ERROR(ReadStatus(r, &s));
    b.statuses.push_back(std::move(s));
  }
  VDG_ASSIGN_OR_RETURN(b.assigned_ids, ReadStringVec(r));
  VDG_ASSIGN_OR_RETURN(uint64_t applied, r.ReadU64());
  b.applied = static_cast<size_t>(applied);
  VDG_ASSIGN_OR_RETURN(b.version, r.ReadU64());
  VDG_RETURN_IF_ERROR(ReadStatus(r, &b.first_error));
  return b;
}

// -----------------------------------------------------------------------
// Request / response payload encoding
// -----------------------------------------------------------------------

void EncodeRequestPayload(const Request& request, std::string* out) {
  Writer w(out);
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, EmptyReq>) {
          // no payload
        } else if constexpr (std::is_same_v<T, NameReq>) {
          w.PutString(body.name);
        } else if constexpr (std::is_same_v<T, ChangesSinceReq>) {
          w.PutU64(body.since_version);
        } else if constexpr (std::is_same_v<T, FindDatasetsReq>) {
          PutDatasetQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, FindTransformationsReq>) {
          PutTransformationQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, FindDerivationsReq>) {
          PutDerivationQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, TypeConformsReq>) {
          PutDatasetType(w, body.type);
          PutDatasetType(w, body.against);
        } else if constexpr (std::is_same_v<T, BatchGetReq>) {
          w.PutCount(body.keys.size());
          for (const auto& key : body.keys) {
            w.PutString(key.kind);
            w.PutString(key.name);
          }
        } else {
          static_assert(std::is_same_v<T, ApplyBatchReq>);
          w.PutCount(body.mutations.size());
          for (const auto& m : body.mutations) PutMutation(w, m);
          w.PutBool(body.options.stop_on_error);
          w.PutString(body.options.idempotency_token);
        }
      },
      request.body);
}

void EncodeResponsePayload(const Response& response, std::string* out) {
  Writer w(out);
  PutStatus(w, response.status);
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          // status-only response
        } else if constexpr (std::is_same_v<T, HandshakeResp>) {
          w.PutString(body.authority);
          w.PutBool(body.read_only);
        } else if constexpr (std::is_same_v<T, VersionResp>) {
          w.PutU64(body.version);
        } else if constexpr (std::is_same_v<T, ChangesResp>) {
          w.PutCount(body.changes.size());
          for (const auto& c : body.changes) PutCatalogChange(w, c);
        } else if constexpr (std::is_same_v<T, DatasetResp>) {
          PutDataset(w, body.dataset);
        } else if constexpr (std::is_same_v<T, TransformationResp>) {
          PutTransformation(w, body.transformation);
        } else if constexpr (std::is_same_v<T, DerivationResp>) {
          PutDerivation(w, body.derivation);
        } else if constexpr (std::is_same_v<T, BoolResp>) {
          w.PutBool(body.value);
        } else if constexpr (std::is_same_v<T, StringResp>) {
          w.PutString(body.value);
        } else if constexpr (std::is_same_v<T, InvocationsResp>) {
          w.PutCount(body.invocations.size());
          for (const auto& inv : body.invocations) PutInvocation(w, inv);
        } else if constexpr (std::is_same_v<T, NamesResp>) {
          // Straight from the views: no owned-string materialization
          // between the snapshot and the payload bytes.
          w.PutCount(body.names.size());
          for (std::string_view name : body.names) w.PutString(name);
        } else if constexpr (std::is_same_v<T, RecordsResp>) {
          w.PutCount(body.records.size());
          for (const auto& rec : body.records) PutObjectRecord(w, rec);
        } else if constexpr (std::is_same_v<T, StepResp>) {
          PutProvenanceStep(w, body.step);
        } else {
          static_assert(std::is_same_v<T, BatchResultResp>);
          PutBatchResult(w, body.result);
        }
      },
      response.body);
}

std::string EncodeFrame(uint64_t request_id, bool is_response, MsgKind kind,
                        std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  Writer w(&frame);
  frame.append(kMagic, sizeof(kMagic));
  w.PutU8(kCodecVersion);
  w.PutU8(is_response ? kFlagResponse : 0);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU8(0);  // reserved
  w.PutU64(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  w.PutU32(Crc32(frame));
  return frame;
}

}  // namespace

std::string_view MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kHandshake: return "Handshake";
    case MsgKind::kVersion: return "Version";
    case MsgKind::kChangesSince: return "ChangesSince";
    case MsgKind::kGetDataset: return "GetDataset";
    case MsgKind::kGetTransformation: return "GetTransformation";
    case MsgKind::kGetDerivation: return "GetDerivation";
    case MsgKind::kHasDataset: return "HasDataset";
    case MsgKind::kIsMaterialized: return "IsMaterialized";
    case MsgKind::kProducerOf: return "ProducerOf";
    case MsgKind::kInvocationsOf: return "InvocationsOf";
    case MsgKind::kFindDatasets: return "FindDatasets";
    case MsgKind::kFindTransformations: return "FindTransformations";
    case MsgKind::kFindDerivations: return "FindDerivations";
    case MsgKind::kAllNames: return "AllNames";
    case MsgKind::kTypeConforms: return "TypeConforms";
    case MsgKind::kBatchGet: return "BatchGet";
    case MsgKind::kGetProvenanceStep: return "GetProvenanceStep";
    case MsgKind::kApplyBatch: return "ApplyBatch";
  }
  return "Unknown";
}

bool IsValidMsgKind(uint8_t raw) {
  return raw >= static_cast<uint8_t>(MsgKind::kHandshake) &&
         raw <= static_cast<uint8_t>(MsgKind::kApplyBatch);
}

bool IsIdempotent(const Request& request) {
  switch (request.kind) {
    case MsgKind::kHandshake:
    case MsgKind::kVersion:
    case MsgKind::kChangesSince:
    case MsgKind::kGetDataset:
    case MsgKind::kGetTransformation:
    case MsgKind::kGetDerivation:
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kProducerOf:
    case MsgKind::kInvocationsOf:
    case MsgKind::kFindDatasets:
    case MsgKind::kFindTransformations:
    case MsgKind::kFindDerivations:
    case MsgKind::kAllNames:
    case MsgKind::kTypeConforms:
    case MsgKind::kBatchGet:
    case MsgKind::kGetProvenanceStep:
      return true;
    case MsgKind::kApplyBatch: {
      const auto* body = std::get_if<ApplyBatchReq>(&request.body);
      return body != nullptr && !body->options.idempotency_token.empty();
    }
  }
  return false;
}

std::string EncodeRequestFrame(uint64_t request_id, const Request& request) {
  std::string payload;
  EncodeRequestPayload(request, &payload);
  return EncodeFrame(request_id, /*is_response=*/false, request.kind, payload);
}

std::string EncodeResponseFrame(uint64_t request_id,
                                const Response& response) {
  std::string payload;
  EncodeResponsePayload(response, &payload);
  return EncodeFrame(request_id, /*is_response=*/true, response.kind, payload);
}

Result<size_t> FrameSize(std::string_view buffer) {
  if (buffer.empty()) return Status::NotFound("wire: incomplete frame header");
  // Validate whatever prefix of the header is present: a bad magic or
  // version is corruption no amount of further bytes can fix, and the
  // connection should drop immediately instead of waiting forever.
  size_t check = std::min(buffer.size(), sizeof(kMagic));
  if (std::memcmp(buffer.data(), kMagic, check) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  if (buffer.size() > 4 && static_cast<uint8_t>(buffer[4]) != kCodecVersion) {
    return Status::ParseError("wire: unsupported codec version");
  }
  if (buffer.size() < kFrameHeaderBytes) {
    return Status::NotFound("wire: incomplete frame header");
  }
  uint32_t payload_size = 0;
  for (int i = 0; i < 4; ++i) {
    payload_size |=
        static_cast<uint32_t>(static_cast<uint8_t>(buffer[16 + i])) << (8 * i);
  }
  if (payload_size > kMaxPayloadBytes) {
    return Status::ResourceExhausted("wire: declared payload exceeds limit");
  }
  return kFrameHeaderBytes + static_cast<size_t>(payload_size) +
         kFrameTrailerBytes;
}

Result<Frame> DecodeFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Status::ParseError("wire: frame shorter than header + checksum");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  Frame frame;
  frame.version = static_cast<uint8_t>(bytes[4]);
  if (frame.version != kCodecVersion) {
    return Status::ParseError("wire: unsupported codec version");
  }
  uint8_t flags = static_cast<uint8_t>(bytes[5]);
  if ((flags & ~kFlagResponse) != 0) {
    return Status::ParseError("wire: unknown frame flags");
  }
  frame.is_response = (flags & kFlagResponse) != 0;
  uint8_t raw_kind = static_cast<uint8_t>(bytes[6]);
  if (!IsValidMsgKind(raw_kind)) {
    return Status::ParseError("wire: unknown message kind");
  }
  frame.kind = static_cast<MsgKind>(raw_kind);
  if (static_cast<uint8_t>(bytes[7]) != 0) {
    return Status::ParseError("wire: nonzero reserved header byte");
  }
  uint64_t request_id = 0;
  for (int i = 0; i < 8; ++i) {
    request_id |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[8 + i]))
                  << (8 * i);
  }
  frame.request_id = request_id;
  uint32_t payload_size = 0;
  for (int i = 0; i < 4; ++i) {
    payload_size |=
        static_cast<uint32_t>(static_cast<uint8_t>(bytes[16 + i])) << (8 * i);
  }
  if (payload_size > kMaxPayloadBytes) {
    return Status::ResourceExhausted("wire: declared payload exceeds limit");
  }
  if (bytes.size() !=
      kFrameHeaderBytes + payload_size + kFrameTrailerBytes) {
    return Status::ParseError("wire: frame length disagrees with header");
  }
  size_t crc_offset = bytes.size() - kFrameTrailerBytes;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |=
        static_cast<uint32_t>(static_cast<uint8_t>(bytes[crc_offset + i]))
        << (8 * i);
  }
  uint32_t computed = Crc32(bytes.substr(0, crc_offset));
  if (stored_crc != computed) {
    return Status::ParseError("wire: frame checksum mismatch");
  }
  frame.payload = bytes.substr(kFrameHeaderBytes, payload_size);
  return frame;
}

Result<Request> DecodeRequest(MsgKind kind, std::string_view payload) {
  Reader r(payload);
  Request req;
  req.kind = kind;
  switch (kind) {
    case MsgKind::kHandshake:
    case MsgKind::kVersion:
      req.body = EmptyReq{};
      break;
    case MsgKind::kChangesSince: {
      ChangesSinceReq body;
      VDG_ASSIGN_OR_RETURN(body.since_version, r.ReadU64());
      req.body = std::move(body);
      break;
    }
    case MsgKind::kGetDataset:
    case MsgKind::kGetTransformation:
    case MsgKind::kGetDerivation:
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kProducerOf:
    case MsgKind::kInvocationsOf:
    case MsgKind::kAllNames:
    case MsgKind::kGetProvenanceStep: {
      NameReq body;
      VDG_ASSIGN_OR_RETURN(body.name, r.ReadString());
      req.body = std::move(body);
      break;
    }
    case MsgKind::kFindDatasets: {
      FindDatasetsReq body;
      VDG_ASSIGN_OR_RETURN(body.query, ReadDatasetQuery(r));
      req.body = std::move(body);
      break;
    }
    case MsgKind::kFindTransformations: {
      FindTransformationsReq body;
      VDG_ASSIGN_OR_RETURN(body.query, ReadTransformationQuery(r));
      req.body = std::move(body);
      break;
    }
    case MsgKind::kFindDerivations: {
      FindDerivationsReq body;
      VDG_ASSIGN_OR_RETURN(body.query, ReadDerivationQuery(r));
      req.body = std::move(body);
      break;
    }
    case MsgKind::kTypeConforms: {
      TypeConformsReq body;
      VDG_ASSIGN_OR_RETURN(body.type, ReadDatasetType(r));
      VDG_ASSIGN_OR_RETURN(body.against, ReadDatasetType(r));
      req.body = std::move(body);
      break;
    }
    case MsgKind::kBatchGet: {
      BatchGetReq body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      body.keys.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ObjectKey key;
        VDG_ASSIGN_OR_RETURN(key.kind, r.ReadString());
        VDG_ASSIGN_OR_RETURN(key.name, r.ReadString());
        body.keys.push_back(std::move(key));
      }
      req.body = std::move(body);
      break;
    }
    case MsgKind::kApplyBatch: {
      ApplyBatchReq body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      body.mutations.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(CatalogMutation m, ReadMutation(r));
        body.mutations.push_back(std::move(m));
      }
      VDG_ASSIGN_OR_RETURN(body.options.stop_on_error, r.ReadBool());
      VDG_ASSIGN_OR_RETURN(body.options.idempotency_token, r.ReadString());
      req.body = std::move(body);
      break;
    }
  }
  VDG_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

Result<Response> DecodeResponse(MsgKind kind, std::string_view payload) {
  Reader r(payload);
  Response resp;
  resp.kind = kind;
  VDG_RETURN_IF_ERROR(ReadStatus(r, &resp.status));
  if (!resp.status.ok()) {
    // Error responses carry no body regardless of kind.
    VDG_RETURN_IF_ERROR(r.ExpectEnd());
    return resp;
  }
  switch (kind) {
    case MsgKind::kHandshake: {
      HandshakeResp body;
      VDG_ASSIGN_OR_RETURN(body.authority, r.ReadString());
      VDG_ASSIGN_OR_RETURN(body.read_only, r.ReadBool());
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kVersion: {
      VersionResp body;
      VDG_ASSIGN_OR_RETURN(body.version, r.ReadU64());
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kChangesSince: {
      ChangesResp body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      body.changes.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(CatalogChange c, ReadCatalogChange(r));
        body.changes.push_back(std::move(c));
      }
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetDataset: {
      DatasetResp body;
      VDG_ASSIGN_OR_RETURN(body.dataset, ReadDataset(r));
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetTransformation: {
      TransformationResp body;
      VDG_ASSIGN_OR_RETURN(body.transformation, ReadTransformation(r));
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetDerivation: {
      DerivationResp body;
      VDG_ASSIGN_OR_RETURN(body.derivation, ReadDerivation(r));
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kTypeConforms: {
      BoolResp body;
      VDG_ASSIGN_OR_RETURN(body.value, r.ReadBool());
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kProducerOf: {
      StringResp body;
      VDG_ASSIGN_OR_RETURN(body.value, r.ReadString());
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kInvocationsOf: {
      InvocationsResp body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      body.invocations.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(Invocation inv, ReadInvocation(r));
        body.invocations.push_back(std::move(inv));
      }
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kFindDatasets:
    case MsgKind::kFindTransformations:
    case MsgKind::kFindDerivations:
    case MsgKind::kAllNames: {
      // Arena decode: one buffer per response holds every name;
      // the list's views point into it (no per-name allocation).
      NamesResp body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      NameList::ArenaBuilder names;
      names.Reserve(n, r.remaining());
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(std::string_view s, r.ReadStringView());
        names.Append(s);
      }
      body.names = std::move(names).Build();
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kBatchGet: {
      RecordsResp body;
      VDG_ASSIGN_OR_RETURN(size_t n, r.ReadCount());
      body.records.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VDG_ASSIGN_OR_RETURN(ObjectRecord rec, ReadObjectRecord(r));
        body.records.push_back(std::move(rec));
      }
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetProvenanceStep: {
      StepResp body;
      VDG_ASSIGN_OR_RETURN(body.step, ReadProvenanceStep(r));
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kApplyBatch: {
      BatchResultResp body;
      VDG_ASSIGN_OR_RETURN(body.result, ReadBatchResult(r));
      resp.body = std::move(body);
      break;
    }
  }
  VDG_RETURN_IF_ERROR(r.ExpectEnd());
  return resp;
}

}  // namespace wire
}  // namespace vdg
