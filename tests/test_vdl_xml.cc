// Round-trip tests for the XML machine-to-machine wire format: the
// paper notes "an XML version is also implemented for machine-to-
// machine interfaces"; the federation layer ships definitions between
// catalogs in this form.
#include "vdl/xml_parse.h"

#include <gtest/gtest.h>

#include "vdl/printer.h"
#include "vdl/xml.h"

namespace vdg {
namespace {

// ---------------------------- raw XML DOM ----------------------------

TEST(XmlDomTest, ParsesElementsAttributesText) {
  Result<std::unique_ptr<XmlNode>> doc = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<root a=\"1\" b='two'>\n"
      "  <child>hello</child>\n"
      "  <empty/>\n"
      "</root>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const XmlNode& root = **doc;
  EXPECT_EQ(root.name, "root");
  ASSERT_NE(root.FindAttribute("a"), nullptr);
  EXPECT_EQ(*root.FindAttribute("a"), "1");
  EXPECT_EQ(*root.FindAttribute("b"), "two");
  EXPECT_EQ(root.FindAttribute("c"), nullptr);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.FirstChild("child")->text, "hello");
  EXPECT_NE(root.FirstChild("empty"), nullptr);
  EXPECT_EQ(root.FirstChild("nope"), nullptr);
}

TEST(XmlDomTest, DecodesEntities) {
  Result<std::unique_ptr<XmlNode>> doc =
      ParseXml("<r v=\"a&lt;b&amp;c&quot;\">x&gt;y&apos;z</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*(*doc)->FindAttribute("v"), "a<b&c\"");
  EXPECT_EQ((*doc)->text, "x>y'z");
}

TEST(XmlDomTest, SkipsComments) {
  Result<std::unique_ptr<XmlNode>> doc =
      ParseXml("<!-- header --><r><!-- inner --><c/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->children.size(), 1u);
}

TEST(XmlDomTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseXml("<unclosed>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());
  EXPECT_FALSE(ParseXml("<a x=\"1></a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());  // two roots
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());
  EXPECT_FALSE(ParseXml("").ok());
}

TEST(XmlDomTest, NestingDepthIsBounded) {
  auto nested = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += "<a>";
    for (int i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  Result<std::unique_ptr<XmlNode>> at_bound = ParseXml(nested(kMaxXmlDepth));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  int depth = 1;
  for (const XmlNode* node = at_bound->get(); !node->children.empty();
       node = node->children.front().get()) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxXmlDepth);
  Result<std::unique_ptr<XmlNode>> past = ParseXml(nested(kMaxXmlDepth + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsParseError()) << past.status();
}

TEST(XmlDomTest, NestedChildrenByTag) {
  Result<std::unique_ptr<XmlNode>> doc =
      ParseXml("<r><p i=\"1\"/><q/><p i=\"2\"/></r>");
  ASSERT_TRUE(doc.ok());
  std::vector<const XmlNode*> ps = (*doc)->Children("p");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(*ps[1]->FindAttribute("i"), "2");
}

// ------------------------ VDL wire round trip ------------------------

// Property: for every corpus program, text-VDL -> objects -> XML ->
// objects preserves type signatures, derivation signatures, and the
// printable form.
class XmlRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRoundTrip, XmlPreservesPrograms) {
  Result<VdlProgram> original = ParseVdl(GetParam());
  ASSERT_TRUE(original.ok()) << original.status();
  std::string xml = ProgramToXml(*original);
  Result<VdlProgram> decoded = ParseVdlXml(xml);
  ASSERT_TRUE(decoded.ok()) << decoded.status() << "\n" << xml;

  ASSERT_EQ(decoded->transformations.size(),
            original->transformations.size());
  for (size_t i = 0; i < original->transformations.size(); ++i) {
    EXPECT_EQ(decoded->transformations[i].TypeSignature(),
              original->transformations[i].TypeSignature());
    EXPECT_EQ(PrintTransformation(decoded->transformations[i]),
              PrintTransformation(original->transformations[i]));
  }
  ASSERT_EQ(decoded->derivations.size(), original->derivations.size());
  for (size_t i = 0; i < original->derivations.size(); ++i) {
    EXPECT_EQ(decoded->derivations[i].SignatureText(),
              original->derivations[i].SignatureText());
    EXPECT_EQ(decoded->derivations[i].name(),
              original->derivations[i].name());
  }
  ASSERT_EQ(decoded->datasets.size(), original->datasets.size());
  for (size_t i = 0; i < original->datasets.size(); ++i) {
    EXPECT_EQ(decoded->datasets[i].name, original->datasets[i].name);
    EXPECT_EQ(decoded->datasets[i].type, original->datasets[i].type);
    EXPECT_EQ(decoded->datasets[i].size_bytes,
              original->datasets[i].size_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, XmlRoundTrip,
    ::testing::Values(
        // Appendix A basic transformation + derivation.
        R"(
TR t1( output a2, input a1, none env="100000", none pa="500" ) {
  argument parg = "-p "${none:pa};
  argument farg = "-f "${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app3";
  env.MAXMEM = ${none:env};
}
DV d1->example1::t1( a2=@{output:"run1.summary"},
                     a1=@{input:"run1.raw"}, env="20000" );
)",
        // Compound with nested calls and inout defaults.
        R"(
TR trans1( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app1";
}
TR trans4( input a2, input a1,
           inout a4=@{inout:"somewhere":""}, output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans1( a2=${output:a3}, a1=${input:a4} );
}
)",
        // Typed formals, unions, datasets, escapes.
        R"(
TR typed( input SDSS/Fileset/ASCII a1, input CMS|SDSS a2,
          output */Relation/* a3, none p="quote\"and<angle>" ) {
  exec = "/bin/x";
}
DS file1 : SDSS/Simple/ASCII size="2048" path="/data/<odd>&name";
DV use->typed( a1=@{input:"file1"}, a2=@{input:"file1"},
               a3=@{output:"out.rel"} );
)"));

TEST(XmlWireTest, AnnotationsSurviveTheWire) {
  Result<VdlProgram> program = ParseVdl(
      "TR t( input x ) { exec=\"/b\"; } "
      "DV v->t( x=@{input:\"d\"} ); DS d : CMS;");
  ASSERT_TRUE(program.ok());
  program->transformations[0].annotations().Set("sim.runtime_s", 12.5);
  program->transformations[0].annotations().Set("author", "alice");
  program->derivations[0].annotations().Set("campaign", "dr1");
  program->datasets[0].annotations.Set("curated", true);
  program->datasets[0].descriptor.fields.Set("rows", int64_t{42});

  Result<VdlProgram> decoded = ParseVdlXml(ProgramToXml(*program));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(
      decoded->transformations[0].annotations().GetDouble("sim.runtime_s"),
      12.5);
  EXPECT_EQ(decoded->transformations[0].annotations().GetString("author"),
            "alice");
  EXPECT_EQ(decoded->derivations[0].annotations().GetString("campaign"),
            "dr1");
  EXPECT_EQ(decoded->datasets[0].annotations.GetBool("curated"), true);
  EXPECT_EQ(decoded->datasets[0].descriptor.fields.GetInt("rows"), 42);
}

TEST(XmlWireTest, EnvOverridesAndVersionSurvive) {
  Result<VdlProgram> program =
      ParseVdl("TR t( input x ) { exec=\"/b\"; } DV v->t( x=@{input:\"d\"} );");
  ASSERT_TRUE(program.ok());
  program->transformations[0].set_version("v3");
  program->derivations[0].SetEnvOverride("MAXMEM", "1024");
  Result<VdlProgram> decoded = ParseVdlXml(ProgramToXml(*program));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->transformations[0].version(), "v3");
  EXPECT_EQ(decoded->derivations[0].env_overrides().at("MAXMEM"), "1024");
}

TEST(XmlWireTest, RejectsWrongRootAndElements) {
  EXPECT_FALSE(ParseVdlXml("<notvdl/>").ok());
  EXPECT_FALSE(ParseVdlXml("<vdl><widget/></vdl>").ok());
  EXPECT_TRUE(ParseVdlXml("<vdl></vdl>")->size() == 0);
}

TEST(XmlWireTest, SingleObjectDecoders) {
  Result<VdlProgram> program = ParseVdl(
      "TR t( output o, input i ) { argument stdin=${input:i}; "
      "argument stdout=${output:o}; exec=\"/b\"; }");
  ASSERT_TRUE(program.ok());
  std::string xml = TransformationToXml(program->transformations[0]);
  Result<std::unique_ptr<XmlNode>> node = ParseXml(xml);
  ASSERT_TRUE(node.ok());
  Result<Transformation> tr = TransformationFromXml(**node);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_EQ(tr->name(), "t");
  // Feeding the wrong element kind is rejected.
  EXPECT_FALSE(DerivationFromXml(**node).ok());
  EXPECT_FALSE(DatasetFromXml(**node).ok());
}

}  // namespace
}  // namespace vdg
