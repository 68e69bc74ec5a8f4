// The GAL_* knob table (common/env.h): README.md's knob table and
// scripts/check.sh are kept in sync with it, and every knob's parser
// holds up under seeded byte mutation.

#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "byte_mutator.h"
#include "common/env.h"

namespace gal {
namespace {

std::string Slurp(const std::string& relative_path) {
  std::ifstream in(std::string(GAL_SOURCE_DIR) + "/" + relative_path);
  EXPECT_TRUE(in.good()) << relative_path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The cells of one markdown table row: split on unescaped '|', with
/// "\|" unescaped and backticks and padding dropped.
std::vector<std::string> Cells(const std::string& row) {
  std::vector<std::string> cells;
  std::string cell;
  for (size_t i = 1; i < row.size(); ++i) {
    if (row[i] == '\\' && i + 1 < row.size() && row[i + 1] == '|') {
      cell += '|';
      ++i;
    } else if (row[i] == '|') {
      const size_t first = cell.find_first_not_of(' ');
      const size_t last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? ""
                          : cell.substr(first, last - first + 1));
      cell.clear();
    } else if (row[i] != '`') {
      cell += row[i];
    }
  }
  return cells;
}

TEST(EnvTableTest, ReadmeTableMatchesTheRegistryRowForRow) {
  std::istringstream readme(Slurp("README.md"));
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("| `GAL_", 0) == 0) rows.push_back(Cells(line));
  }
  const auto table = env::Table();
  ASSERT_EQ(rows.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    const env::KnobSpec& spec = table[i];
    ASSERT_EQ(rows[i].size(), 5u) << spec.name;  // variable .. effect
    EXPECT_EQ(rows[i][0], spec.name) << "row " << i;
    EXPECT_EQ(rows[i][1], spec.values) << spec.name;
    EXPECT_EQ(rows[i][2], spec.default_value) << spec.name;
    EXPECT_EQ(rows[i][3], spec.policy == env::Policy::kStrict ? "strict"
                                                               : "warn once")
        << spec.name;
    EXPECT_FALSE(rows[i][4].empty()) << spec.name;
  }
}

// A misspelled kill switch (GAL_OOC_BUDGET_BYTE=1) would turn its stage
// of the check script into a plain rerun without failing anything.
TEST(EnvTableTest, CheckScriptSetsOnlyRegisteredKnobs) {
  const std::string script = Slurp("scripts/check.sh");
  size_t found = 0;
  for (size_t at = script.find("GAL_"); at != std::string::npos;
       at = script.find("GAL_", at + 1)) {
    // Each `GAL_[A-Z0-9_]*=` in the script.
    size_t end = at + 4;
    while (end < script.size() &&
           ((script[end] >= 'A' && script[end] <= 'Z') ||
            (script[end] >= '0' && script[end] <= '9') || script[end] == '_')) {
      ++end;
    }
    if (end == script.size() || script[end] != '=') continue;
    ++found;
    const std::string name = script.substr(at, end - at);
    bool registered = false;
    for (const env::KnobSpec& spec : env::Table()) {
      registered = registered || name == spec.name;
    }
    EXPECT_TRUE(registered) << name << " is not a knob of common/env.h";
  }
  EXPECT_GT(found, 0u);
}

/// Valid spellings of each knob: the mutation seeds.
std::map<env::Knob, std::vector<std::string>> ValidSpellings() {
  using env::Knob;
  const std::vector<std::string> counts = {"1", "4", "64", "4294967295"};
  const std::vector<std::string> switches = {"1",  "on",    "true", "yes",
                                             "0",  "off",   "false", "no"};
  const std::vector<std::string> numbers = {"15", "3.5", "1e3", ".5", "2.5E-1"};
  const std::vector<std::string> rounds = {"0", "5", "4294967295"};
  std::vector<std::string> compression = switches;
  compression.insert(compression.end(), {"none", "delta-varint"});
  return {
      {Knob::kTaskThreads, counts},
      {Knob::kClusterWorkers, counts},
      {Knob::kKernelThreads, counts},
      {Knob::kStageExecutors, counts},
      {Knob::kSimd, switches},
      {Knob::kGraphCompression, compression},
      {Knob::kFrontierMode, {"auto", "push", "pull"}},
      {Knob::kFrontierAlpha, numbers},
      {Knob::kFrontierBeta, numbers},
      {Knob::kOocShardBytes, {"512", "65536", "18446744073709551615"}},
      {Knob::kOocBudgetBytes, {"0", "1", "1048576"}},
      {Knob::kFaultCheckpoint, rounds},
      {Knob::kFaultFail, {"0@3", "1@7,0@9", "3@1,2@2,1@3"}},
      {Knob::kFaultSlow, {"0:2", "2:3.5@4-9,0:2", "1:1000@0-4294967295",
                          "1:1e3"}},
      {Knob::kFaultSeed, rounds},
      {Knob::kFaultRebalance, {"0", "1"}},
  };
}

/// Index of `text` among the '|'-separated `spellings`, or -1.
int IndexIn(const std::string& spellings, const std::string& text) {
  std::istringstream in(spellings);
  int index = 0;
  for (std::string s; std::getline(in, s, '|'); ++index) {
    if (s == text) return index;
  }
  return -1;
}

/// Why `value`, parsed from `text`, is not a value `spec`'s kind
/// allows; empty when it is.
std::string Disallowed(const env::KnobSpec& spec, const std::string& text,
                       const env::Value& value) {
  switch (spec.kind) {
    case env::Kind::kSwitch: {
      const bool on = IndexIn("1|on|true|yes", text) >= 0 ||
                      (spec.spellings != nullptr &&
                       IndexIn(spec.spellings, text) == 1);
      const bool off = IndexIn("0|off|false|no", text) >= 0 ||
                       (spec.spellings != nullptr &&
                        IndexIn(spec.spellings, text) == 0);
      if (!on && !off) return "not a listed spelling";
      return value.on == on ? "" : "wrong setting";
    }
    case env::Kind::kInteger:
      return value.integer >= spec.min && value.integer <= spec.max
                 ? ""
                 : "out of bounds";
    case env::Kind::kNumber:
      return std::isfinite(value.number) && value.number > 0.0
                 ? ""
                 : "not a positive finite number";
    case env::Kind::kChoice:
      return IndexIn(spec.spellings, text) == static_cast<int>(value.choice)
                 ? ""
                 : "not the listed choice";
    case env::Kind::kFailures:
      return value.events.empty() ? "no events" : "";
    case env::Kind::kSlowdowns:
      if (value.events.empty()) return "no events";
      for (const env::Event& e : value.events) {
        if (!std::isfinite(e.factor) || e.factor < 1.0) return "bad factor";
        if (e.until <= e.round) return "empty window";
      }
      return "";
  }
  return "unknown kind";
}

// Every mutant of a valid spelling either parses to a value its row's
// kind allows or is rejected: a positive count, a finite factor >= 1, a
// non-empty window or a listed choice, never a silent misread. Pure
// parses, so no setenv; check.sh's ASan stage runs this too.
TEST(EnvMutationTest, EveryMutantParsesToAnAllowedValueOrIsRejected) {
  constexpr int kMutantsPerKnob = 300;
  const auto spellings = ValidSpellings();
  std::vector<std::string> donors;
  for (const auto& [knob, texts] : spellings) {
    donors.insert(donors.end(), texts.begin(), texts.end());
  }
  ASSERT_EQ(spellings.size(), env::Table().size());
  size_t accepted = 0;
  size_t rejected = 0;
  for (const auto& [knob, texts] : spellings) {
    const env::KnobSpec& spec = env::Spec(knob);
    for (const std::string& text : texts) {
      const auto value = env::Parse(knob, text.c_str());
      ASSERT_TRUE(value.ok() && value->has_value()) << spec.name << "=" << text;
      EXPECT_EQ(Disallowed(spec, text, **value), "") << spec.name << "=" << text;
    }
    testing_util::ByteMutator mutator(1 + static_cast<uint64_t>(knob));
    for (int i = 0; i < kMutantsPerKnob; ++i) {
      const std::string& input = texts[i % texts.size()];
      const std::string& donor = donors[(i * 7 + 3) % donors.size()];
      const std::string mutant = mutator.Mutate(input, donor);
      const auto value = env::Parse(knob, mutant.c_str());
      if (!value.ok()) {
        ++rejected;
        EXPECT_NE(value.status().message().find(spec.name), std::string::npos);
        continue;
      }
      if (!value->has_value()) {  // only an emptied switch reads as unset
        EXPECT_EQ(spec.kind, env::Kind::kSwitch) << spec.name;
        EXPECT_TRUE(mutant.empty()) << spec.name;
        continue;
      }
      ++accepted;
      EXPECT_EQ(Disallowed(spec, mutant, **value), "")
          << spec.name << "=\"" << mutant << "\"";
    }
  }
  // Both outcomes occur, so the sweep exercised the parsers both ways.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace gal
