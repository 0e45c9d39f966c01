#include "vdl/xml_parse.h"

#include <cctype>
#include <cstdlib>

#include "common/strings.h"
#include "common/uri.h"

namespace vdg {

const std::string* XmlNode::FindAttribute(std::string_view key) const {
  auto it = attributes.find(std::string(key));
  return it == attributes.end() ? nullptr : &it->second;
}

const XmlNode* XmlNode::FirstChild(std::string_view tag) const {
  for (const auto& child : children) {
    if (child->name == tag) return child.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::Children(std::string_view tag) const {
  std::vector<const XmlNode*> out;
  for (const auto& child : children) {
    if (child->name == tag) out.push_back(child.get());
  }
  return out;
}

namespace {

// ------------------------- lexical helpers ---------------------------

class XmlCursor {
 public:
  explicit XmlCursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  char Take() { return input_[pos_++]; }
  bool Consume(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  size_t pos() const { return pos_; }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

Result<std::string> DecodeEntities(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out.push_back(raw[i]);
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated XML entity");
    }
    std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else {
      return Status::ParseError("unknown XML entity: &" +
                                std::string(entity) + ";");
    }
    i = semi;
  }
  return out;
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
         c == '_' || c == '.' || c == ':';
}

Result<std::string> ReadName(XmlCursor* cursor) {
  std::string name;
  while (!cursor->AtEnd() && IsNameChar(cursor->Peek())) {
    name.push_back(cursor->Take());
  }
  if (name.empty()) {
    return Status::ParseError("expected XML name at offset " +
                              std::to_string(cursor->pos()));
  }
  return name;
}

Status ParseAttributes(XmlCursor* cursor, XmlNode* node) {
  while (true) {
    cursor->SkipWhitespace();
    char c = cursor->Peek();
    if (c == '>' || c == '/' || c == '?') return Status::OK();
    VDG_ASSIGN_OR_RETURN(std::string key, ReadName(cursor));
    cursor->SkipWhitespace();
    if (!cursor->Consume("=")) {
      return Status::ParseError("expected '=' after attribute " + key);
    }
    cursor->SkipWhitespace();
    char quote = cursor->Peek();
    if (quote != '"' && quote != '\'') {
      return Status::ParseError("expected quoted attribute value for " +
                                key);
    }
    cursor->Take();
    std::string raw;
    while (!cursor->AtEnd() && cursor->Peek() != quote) {
      raw.push_back(cursor->Take());
    }
    if (cursor->AtEnd()) {
      return Status::ParseError("unterminated attribute value for " + key);
    }
    cursor->Take();  // closing quote
    VDG_ASSIGN_OR_RETURN(std::string value, DecodeEntities(raw));
    node->attributes.emplace(std::move(key), std::move(value));
  }
}

Result<std::unique_ptr<XmlNode>> ParseElement(XmlCursor* cursor, int depth);

// Parses children + text until the matching close tag. `depth` is the
// nesting level of `node` (the root is 1).
Status ParseContent(XmlCursor* cursor, XmlNode* node, int depth) {
  std::string text;
  while (true) {
    if (cursor->AtEnd()) {
      return Status::ParseError("unterminated element <" + node->name + ">");
    }
    if (cursor->Peek() == '<') {
      if (cursor->Peek(1) == '/') {
        // Close tag.
        cursor->Consume("</");
        VDG_ASSIGN_OR_RETURN(std::string name, ReadName(cursor));
        cursor->SkipWhitespace();
        if (!cursor->Consume(">")) {
          return Status::ParseError("malformed close tag </" + name);
        }
        if (name != node->name) {
          return Status::ParseError("mismatched close tag </" + name +
                                    "> for <" + node->name + ">");
        }
        VDG_ASSIGN_OR_RETURN(node->text, DecodeEntities(text));
        return Status::OK();
      }
      if (cursor->Consume("<!--")) {
        while (!cursor->AtEnd() && !cursor->Consume("-->")) cursor->Take();
        continue;
      }
      VDG_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child,
                           ParseElement(cursor, depth + 1));
      node->children.push_back(std::move(child));
    } else {
      text.push_back(cursor->Take());
    }
  }
}

Result<std::unique_ptr<XmlNode>> ParseElement(XmlCursor* cursor, int depth) {
  // Each level costs stack frames here, and the input comes from
  // outside the program: refuse before the nesting can exhaust it.
  if (depth > kMaxXmlDepth) {
    return Status::ParseError("elements nested deeper than " +
                              std::to_string(kMaxXmlDepth) + " levels");
  }
  if (!cursor->Consume("<")) {
    return Status::ParseError("expected '<' at offset " +
                              std::to_string(cursor->pos()));
  }
  auto node = std::make_unique<XmlNode>();
  VDG_ASSIGN_OR_RETURN(node->name, ReadName(cursor));
  VDG_RETURN_IF_ERROR(ParseAttributes(cursor, node.get()));
  if (cursor->Consume("/>")) return node;
  if (!cursor->Consume(">")) {
    return Status::ParseError("malformed open tag <" + node->name);
  }
  VDG_RETURN_IF_ERROR(ParseContent(cursor, node.get(), depth));
  return node;
}

// --------------------- wire-format reconstruction --------------------

Result<std::vector<DatasetType>> ParseTypeUnion(std::string_view text) {
  std::vector<DatasetType> out;
  for (const std::string& piece : StrSplit(text, '|')) {
    VDG_ASSIGN_OR_RETURN(DatasetType type, DatasetType::Parse(piece));
    out.push_back(std::move(type));
  }
  return out;
}

Result<TemplateExpr> ExprFromChildren(const XmlNode& node) {
  TemplateExpr expr;
  for (const auto& child : node.children) {
    if (child->name == "text") {
      expr.push_back(TemplatePiece::Literal(child->text));
    } else if (child->name == "use") {
      const std::string* name = child->FindAttribute("name");
      if (name == nullptr) {
        return Status::ParseError("<use> missing name attribute");
      }
      std::optional<ArgDirection> dir;
      if (const std::string* link = child->FindAttribute("link")) {
        VDG_ASSIGN_OR_RETURN(ArgDirection parsed,
                             ArgDirectionFromString(*link));
        dir = parsed;
      }
      expr.push_back(TemplatePiece::Ref(*name, dir));
    } else {
      return Status::ParseError("unexpected element <" + child->name +
                                "> in template expression");
    }
  }
  return expr;
}

Result<AttributeSet> AttributesFromChildren(const XmlNode& node) {
  AttributeSet attrs;
  for (const XmlNode* attr : node.Children("attribute")) {
    const std::string* name = attr->FindAttribute("name");
    const std::string* kind = attr->FindAttribute("kind");
    if (name == nullptr || kind == nullptr || kind->size() != 1) {
      return Status::ParseError("malformed <attribute> element");
    }
    VDG_ASSIGN_OR_RETURN(AttributeValue value,
                         AttributeValue::FromTagged((*kind)[0], attr->text));
    attrs.Set(*name, std::move(value));
  }
  return attrs;
}

}  // namespace

Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input) {
  XmlCursor cursor(input);
  cursor.SkipWhitespace();
  if (cursor.Consume("<?xml")) {
    while (!cursor.AtEnd() && !cursor.Consume("?>")) cursor.Take();
  }
  cursor.SkipWhitespace();
  while (cursor.Consume("<!--")) {
    while (!cursor.AtEnd() && !cursor.Consume("-->")) cursor.Take();
    cursor.SkipWhitespace();
  }
  VDG_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root,
                       ParseElement(&cursor, /*depth=*/1));
  cursor.SkipWhitespace();
  if (!cursor.AtEnd()) {
    return Status::ParseError("trailing content after root element");
  }
  return root;
}

Result<Transformation> TransformationFromXml(const XmlNode& node) {
  if (node.name != "transformation") {
    return Status::ParseError("expected <transformation>, got <" +
                              node.name + ">");
  }
  const std::string* name = node.FindAttribute("name");
  const std::string* kind = node.FindAttribute("kind");
  if (name == nullptr || kind == nullptr) {
    return Status::ParseError("<transformation> missing name/kind");
  }
  Transformation tr(*name, *kind == "compound"
                               ? Transformation::Kind::kCompound
                               : Transformation::Kind::kSimple);
  if (const std::string* version = node.FindAttribute("version")) {
    tr.set_version(*version);
  }
  for (const XmlNode* declare : node.Children("declare")) {
    FormalArg arg;
    const std::string* arg_name = declare->FindAttribute("name");
    const std::string* link = declare->FindAttribute("link");
    if (arg_name == nullptr || link == nullptr) {
      return Status::ParseError("<declare> missing name/link");
    }
    arg.name = *arg_name;
    VDG_ASSIGN_OR_RETURN(arg.direction, ArgDirectionFromString(*link));
    if (const std::string* type = declare->FindAttribute("type")) {
      VDG_ASSIGN_OR_RETURN(arg.types, ParseTypeUnion(*type));
    }
    if (const std::string* def = declare->FindAttribute("default")) {
      arg.default_string = *def;
    }
    if (const std::string* def = declare->FindAttribute("defaultDataset")) {
      arg.default_dataset = *def;
    }
    VDG_RETURN_IF_ERROR(tr.AddArg(std::move(arg)));
  }
  if (const XmlNode* exe = node.FirstChild("executable")) {
    tr.set_executable(exe->text);
  }
  for (const XmlNode* arg : node.Children("argument")) {
    ArgumentTemplate t;
    if (const std::string* arg_name = arg->FindAttribute("name")) {
      t.name = *arg_name;
    }
    VDG_ASSIGN_OR_RETURN(t.expr, ExprFromChildren(*arg));
    tr.AddArgumentTemplate(std::move(t));
  }
  for (const XmlNode* env : node.Children("env")) {
    const std::string* env_name = env->FindAttribute("name");
    if (env_name == nullptr) {
      return Status::ParseError("<env> missing name");
    }
    VDG_ASSIGN_OR_RETURN(TemplateExpr expr, ExprFromChildren(*env));
    tr.SetEnv(*env_name, std::move(expr));
  }
  for (const XmlNode* profile : node.Children("profile")) {
    const std::string* key = profile->FindAttribute("key");
    if (key == nullptr) return Status::ParseError("<profile> missing key");
    VDG_ASSIGN_OR_RETURN(TemplateExpr expr, ExprFromChildren(*profile));
    tr.SetProfile(*key, std::move(expr));
  }
  for (const XmlNode* call_node : node.Children("call")) {
    CompoundCall call;
    const std::string* ref = call_node->FindAttribute("ref");
    if (ref == nullptr) return Status::ParseError("<call> missing ref");
    call.callee = *ref;
    for (const XmlNode* pass : call_node->Children("pass")) {
      const std::string* bind = pass->FindAttribute("bind");
      if (bind == nullptr) return Status::ParseError("<pass> missing bind");
      VDG_ASSIGN_OR_RETURN(TemplateExpr expr, ExprFromChildren(*pass));
      if (expr.size() != 1) {
        return Status::ParseError("<pass> must carry exactly one piece");
      }
      call.bindings.emplace_back(*bind, std::move(expr[0]));
    }
    tr.AddCall(std::move(call));
  }
  VDG_ASSIGN_OR_RETURN(tr.annotations(), AttributesFromChildren(node));
  return tr;
}

Result<Derivation> DerivationFromXml(const XmlNode& node) {
  if (node.name != "derivation") {
    return Status::ParseError("expected <derivation>, got <" + node.name +
                              ">");
  }
  const std::string* name = node.FindAttribute("name");
  const std::string* uses = node.FindAttribute("uses");
  if (name == nullptr || uses == nullptr) {
    return Status::ParseError("<derivation> missing name/uses");
  }
  Derivation dv;
  dv.set_name(*name);
  size_t pos = uses->rfind("::");
  if (pos != std::string::npos && !IsVdpUri(*uses)) {
    dv.set_transformation_namespace(uses->substr(0, pos));
    dv.set_transformation(uses->substr(pos + 2));
  } else {
    dv.set_transformation(*uses);
  }
  for (const XmlNode* pass : node.Children("pass")) {
    const std::string* bind = pass->FindAttribute("bind");
    if (bind == nullptr) return Status::ParseError("<pass> missing bind");
    if (const std::string* value = pass->FindAttribute("value")) {
      VDG_RETURN_IF_ERROR(dv.AddArg(ActualArg::String(*bind, *value)));
      continue;
    }
    const std::string* dataset = pass->FindAttribute("dataset");
    const std::string* link = pass->FindAttribute("link");
    if (dataset == nullptr || link == nullptr) {
      return Status::ParseError("<pass> needs value or dataset+link");
    }
    VDG_ASSIGN_OR_RETURN(ArgDirection dir, ArgDirectionFromString(*link));
    VDG_RETURN_IF_ERROR(
        dv.AddArg(ActualArg::DatasetRef(*bind, *dataset, dir)));
  }
  for (const XmlNode* env : node.Children("env")) {
    const std::string* env_name = env->FindAttribute("name");
    const std::string* value = env->FindAttribute("value");
    if (env_name == nullptr || value == nullptr) {
      return Status::ParseError("<env> missing name/value");
    }
    dv.SetEnvOverride(*env_name, *value);
  }
  VDG_ASSIGN_OR_RETURN(dv.annotations(), AttributesFromChildren(node));
  return dv;
}

Result<Dataset> DatasetFromXml(const XmlNode& node) {
  if (node.name != "dataset") {
    return Status::ParseError("expected <dataset>, got <" + node.name + ">");
  }
  Dataset ds;
  const std::string* name = node.FindAttribute("name");
  if (name == nullptr) return Status::ParseError("<dataset> missing name");
  ds.name = *name;
  if (const std::string* type = node.FindAttribute("type")) {
    VDG_ASSIGN_OR_RETURN(ds.type, DatasetType::Parse(*type));
  }
  if (const std::string* size = node.FindAttribute("size")) {
    ds.size_bytes = std::strtoll(size->c_str(), nullptr, 10);
  }
  if (const std::string* producer = node.FindAttribute("producer")) {
    ds.producer = *producer;
  }
  if (const XmlNode* descriptor = node.FirstChild("descriptor")) {
    if (const std::string* schema = descriptor->FindAttribute("schema")) {
      ds.descriptor.schema = *schema;
    }
    VDG_ASSIGN_OR_RETURN(ds.descriptor.fields,
                         AttributesFromChildren(*descriptor));
  }
  VDG_ASSIGN_OR_RETURN(ds.annotations, AttributesFromChildren(node));
  return ds;
}

Result<VdlProgram> ParseVdlXml(std::string_view xml) {
  VDG_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseXml(xml));
  if (root->name != "vdl") {
    return Status::ParseError("expected <vdl> root element, got <" +
                              root->name + ">");
  }
  VdlProgram program;
  for (const auto& child : root->children) {
    if (child->name == "dataset") {
      VDG_ASSIGN_OR_RETURN(Dataset ds, DatasetFromXml(*child));
      program.datasets.push_back(std::move(ds));
    } else if (child->name == "transformation") {
      VDG_ASSIGN_OR_RETURN(Transformation tr,
                           TransformationFromXml(*child));
      program.transformations.push_back(std::move(tr));
    } else if (child->name == "derivation") {
      VDG_ASSIGN_OR_RETURN(Derivation dv, DerivationFromXml(*child));
      program.derivations.push_back(std::move(dv));
    } else {
      return Status::ParseError("unexpected element <" + child->name +
                                "> under <vdl>");
    }
  }
  return program;
}

}  // namespace vdg
