/// \file test_analysis_sarif.cpp
/// \brief SARIF 2.1.0 writer/validator round trip plus rejection of the
/// structural defects the CI smoke is meant to catch.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/analysis.hpp"

namespace {

using namespace mcps;
using analysis::Finding;
using analysis::RuleId;

analysis::AnalysisReport sample_report() {
    analysis::AnalysisReport rep;
    rep.analyzed.push_back("unit-test");

    Finding a;
    a.rule = RuleId::kCONC1;
    a.severity = analysis::FindingSeverity::kError;
    a.entity = "Tally::racy_add";
    a.file = "tests/analysis_fixtures/conc1_unguarded.cpp";
    a.line = 14;
    a.message = "field touched outside its lock scope";
    rep.findings.push_back(a);

    Finding b;  // no file anchor: must still export legally
    b.rule = RuleId::kTA5;
    b.severity = analysis::FindingSeverity::kWarning;
    b.entity = "preset pca";
    b.message = "quantile bound note with \"quotes\" and \\backslash";
    rep.findings.push_back(b);
    return rep;
}

TEST(AnalysisSarif, WriterOutputValidates) {
    std::ostringstream out;
    analysis::write_sarif(sample_report(), out);
    const std::string text = out.str();
    std::string err;
    EXPECT_TRUE(analysis::validate_sarif_minimal(text, err)) << err;
    EXPECT_NE(text.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(text.find("CONC1"), std::string::npos);
    EXPECT_NE(text.find("conc1_unguarded.cpp"), std::string::npos);
}

TEST(AnalysisSarif, EmptyReportValidates) {
    std::ostringstream out;
    analysis::write_sarif({}, out);
    std::string err;
    EXPECT_TRUE(analysis::validate_sarif_minimal(out.str(), err)) << err;
}

TEST(AnalysisSarif, RejectsWrongVersion) {
    std::ostringstream out;
    analysis::write_sarif({}, out);
    std::string text = out.str();
    const auto pos = text.find("\"2.1.0\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "\"9.9.9\"");
    std::string err;
    EXPECT_FALSE(analysis::validate_sarif_minimal(text, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(AnalysisSarif, RejectsUnknownRuleId) {
    std::ostringstream out;
    analysis::write_sarif(sample_report(), out);
    std::string text = out.str();
    // Break the first result's ruleId, leaving the catalog intact.
    const auto results = text.find("\"results\"");
    ASSERT_NE(results, std::string::npos);
    const auto pos = text.find("\"CONC1\"", results);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "\"NOPE9\"");
    std::string err;
    EXPECT_FALSE(analysis::validate_sarif_minimal(text, err));
    EXPECT_NE(err.find("ruleId"), std::string::npos) << err;
}

TEST(AnalysisSarif, RejectsIllegalLevel) {
    std::ostringstream out;
    analysis::write_sarif(sample_report(), out);
    std::string text = out.str();
    const auto pos = text.find("\"error\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "\"fatal\"");
    std::string err;
    EXPECT_FALSE(analysis::validate_sarif_minimal(text, err));
    EXPECT_NE(err.find("level"), std::string::npos) << err;
}

TEST(AnalysisSarif, RejectsZeroStartLine) {
    std::ostringstream out;
    analysis::write_sarif(sample_report(), out);
    std::string text = out.str();
    const auto pos = text.find("\"startLine\": 14");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 15, "\"startLine\": 0 ");
    std::string err;
    EXPECT_FALSE(analysis::validate_sarif_minimal(text, err));
    EXPECT_NE(err.find("startLine"), std::string::npos) << err;
}

TEST(AnalysisSarif, RejectsStructurallyEmptyAndGarbage) {
    std::string err;
    EXPECT_FALSE(analysis::validate_sarif_minimal("", err));
    EXPECT_FALSE(analysis::validate_sarif_minimal("not json at all", err));
    EXPECT_FALSE(analysis::validate_sarif_minimal("{}", err));
    EXPECT_FALSE(analysis::validate_sarif_minimal(
        R"({"version": "2.1.0", "runs": []})", err));
    EXPECT_NE(err.find("runs"), std::string::npos) << err;
    EXPECT_FALSE(analysis::validate_sarif_minimal(
        R"({"version": "2.1.0", "runs": [{"tool": {"driver": {}}}]})", err));
}

TEST(AnalysisSarif, DeepNestingIsAClosedError) {
    std::string err;
    EXPECT_FALSE(
        analysis::validate_sarif_minimal(std::string(100000, '['), err));
    EXPECT_NE(err.find("nested deeper"), std::string::npos) << err;
}

TEST(AnalysisSarif, UnicodeEscapesDecode) {
    // Two distinct rule ids spelled with \u escapes ("A" and "B").
    const std::string text =
        R"({"version": "2.1.0", "runs": [{"tool": {"driver": )"
        R"({"name": "t", "rules": [{"id": "\u0041"}, {"id": "\u0042"}]}}, )"
        R"("results": [{"ruleId": "B", "message": {"text": "m"}}]}]})";
    std::string err;
    EXPECT_TRUE(analysis::validate_sarif_minimal(text, err)) << err;
}

}  // namespace
