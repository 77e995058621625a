#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "support/test_dir.hpp"

namespace iprune::util {
namespace {

TEST(Csv, BasicRows) {
  CsvWriter csv({"a", "b"});
  csv.row({"1", "2"}).row({"3", "4"});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n3,4\n");
}

TEST(Csv, QuotesCellsWithCommas) {
  CsvWriter csv({"v"});
  csv.row({"x,y"});
  EXPECT_EQ(csv.str(), "v\n\"x,y\"\n");
}

TEST(Csv, EscapesEmbeddedQuotes) {
  CsvWriter csv({"v"});
  csv.row({"say \"hi\""});
  EXPECT_EQ(csv.str(), "v\n\"say \"\"hi\"\"\"\n");
}

TEST(Csv, QuotesNewlines) {
  CsvWriter csv({"v"});
  csv.row({"two\nlines"});
  EXPECT_EQ(csv.str(), "v\n\"two\nlines\"\n");
}

TEST(Csv, SaveWritesFile) {
  CsvWriter csv({"h"});
  csv.row({"1"});
  const test::TestDir tmp;
  const std::string path = tmp.file("iprune_csv_test.csv");
  ASSERT_TRUE(csv.save(path));
  std::ifstream in(path);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "h\n1\n");
}

TEST(Csv, SaveToInvalidPathFails) {
  CsvWriter csv({"h"});
  EXPECT_FALSE(csv.save("/nonexistent-dir-xyz/file.csv"));
}

}  // namespace
}  // namespace iprune::util
