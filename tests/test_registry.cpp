/// \file test_registry.cpp
/// \brief The NamedRegistry<T> contract, tested once on the template:
/// registration rejects empty names, null entries, reserved characters and
/// duplicates; find() misses with nullptr; names() is sorted. The concurrent
/// find-while-adding case lives in test_undirected
/// (UndirectedRegistry.ResolvedHandleSurvivesConcurrentRegistration), which
/// churns all three instances.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/graph_source.hpp"
#include "engine/registry.hpp"

namespace bmh {
namespace {

MatchingAlgorithm noop_algorithm() {
  return {false, false,
          [](const BipartiteGraph&, const ScalingResult&, const AlgorithmOptions&,
             Workspace&, Matching&) {}};
}

TEST(NamedRegistry, RejectsEmptyName) {
  NamedRegistry<MatchingAlgorithm> reg;
  EXPECT_THROW(reg.add("", noop_algorithm()), std::invalid_argument);
  EXPECT_TRUE(reg.names().empty());
}

TEST(NamedRegistry, RejectsNullEntry) {
  NamedRegistry<MatchingAlgorithm> reg;
  EXPECT_THROW(reg.add("x", std::shared_ptr<const MatchingAlgorithm>()),
               std::invalid_argument);
  EXPECT_THROW(reg.add("x", MatchingAlgorithm{}), std::invalid_argument);  // no run
  NamedRegistry<UndirectedAlgorithmFn> fns;
  EXPECT_THROW(fns.add("x", UndirectedAlgorithmFn{}), std::invalid_argument);
  EXPECT_TRUE(reg.names().empty());
  EXPECT_TRUE(fns.names().empty());
}

TEST(NamedRegistry, RejectsDuplicateName) {
  NamedRegistry<MatchingAlgorithm> reg;
  reg.add("x", noop_algorithm());
  const auto first = reg.find("x");
  EXPECT_THROW(reg.add("x", noop_algorithm()), std::invalid_argument);
  EXPECT_EQ(reg.find("x"), first);  // the original entry is kept
  EXPECT_EQ(reg.names(), std::vector<std::string>{"x"});
}

TEST(NamedRegistry, RejectsReservedCharacters) {
  NamedRegistry<std::string> reg({}, ":");
  EXPECT_THROW(reg.add("a:b", std::string("v")), std::invalid_argument);
  reg.add("ab", std::string("v"));
  EXPECT_EQ(reg.names(), std::vector<std::string>{"ab"});
}

TEST(NamedRegistry, FindReturnsTheEntryOrNull) {
  NamedRegistry<std::string> reg;
  reg.add("a", std::string("alpha"));
  ASSERT_NE(reg.find("a"), nullptr);
  EXPECT_EQ(*reg.find("a"), "alpha");
  EXPECT_EQ(reg.find("b"), nullptr);
  EXPECT_EQ(reg.find(""), nullptr);
}

TEST(NamedRegistry, NamesAreSorted) {
  NamedRegistry<std::string> reg;
  for (const char* name : {"delta", "alpha", "charlie", "bravo"}) reg.add(name, name);
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"alpha", "bravo", "charlie", "delta"}));
}

TEST(NamedRegistry, BuiltInsRegisterAtConstruction) {
  const NamedRegistry<std::string> reg([](NamedRegistry<std::string>& r) {
    r.add("b", std::string("2"));
    r.add("a", std::string("1"));
  });
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(NamedRegistry, GraphSourceSchemesMayNotContainAColon) {
  const std::shared_ptr<const GraphSource> gen = graph_sources().find("gen");
  ASSERT_NE(gen, nullptr);
  EXPECT_THROW(graph_sources().add("gen:er", gen), std::invalid_argument);
  EXPECT_EQ(graph_sources().find("gen:er"), nullptr);
}

} // namespace
} // namespace bmh
