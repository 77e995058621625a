#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "support/test_dir.hpp"

namespace iprune::nn {
namespace {

Graph make_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  Graph g({3});
  auto fc1 = g.add(std::make_unique<Dense>("fc1", 3, 4, rng), {g.input()});
  auto r = g.add(std::make_unique<Relu>("r"), {fc1});
  auto fc2 = g.add(std::make_unique<Dense>("fc2", 4, 2, rng), {r});
  g.set_output(fc2);
  return g;
}

struct Serialize : ::testing::Test {
  test::TestDir tmp;
  [[nodiscard]] std::string temp_path(const char* name) const {
    return tmp.file(name);
  }
};

TEST_F(Serialize, RoundTripsValuesAndMasks) {
  Graph a = make_graph(1);
  auto& fc1 = dynamic_cast<Dense&>(a.layer(1));
  fc1.weight_mask().at(1, 2) = 0.0f;
  fc1.apply_mask();

  const std::string path = temp_path("roundtrip.bin");
  ASSERT_TRUE(save_parameters(a, path));

  Graph b = make_graph(2);  // different init
  ASSERT_TRUE(load_parameters(b, path));

  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value->equals(*pb[i].value));
    if (pa[i].mask != nullptr) {
      EXPECT_TRUE(pa[i].mask->equals(*pb[i].mask));
    }
  }
}

TEST_F(Serialize, LoadedGraphProducesIdenticalOutput) {
  Graph a = make_graph(3);
  const std::string path = temp_path("output_check.bin");
  ASSERT_TRUE(save_parameters(a, path));
  Graph b = make_graph(4);
  ASSERT_TRUE(load_parameters(b, path));

  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(a.forward(x).equals(b.forward(x)));
}

TEST_F(Serialize, MissingFileFails) {
  Graph g = make_graph(5);
  EXPECT_FALSE(load_parameters(g, temp_path("does_not_exist.bin")));
}

TEST_F(Serialize, StructuralMismatchFails) {
  Graph a = make_graph(6);
  const std::string path = temp_path("mismatch.bin");
  ASSERT_TRUE(save_parameters(a, path));

  util::Rng rng(7);
  Graph different({3});
  auto fc = different.add(std::make_unique<Dense>("fc", 3, 7, rng),
                          {different.input()});
  different.set_output(fc);
  EXPECT_FALSE(load_parameters(different, path));
}

TEST_F(Serialize, CorruptMagicFails) {
  const std::string path = temp_path("corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage data here";
  }
  Graph g = make_graph(8);
  EXPECT_FALSE(load_parameters(g, path));
}

TEST_F(Serialize, SaveToBadPathFails) {
  Graph g = make_graph(9);
  EXPECT_FALSE(save_parameters(g, "/nonexistent-dir-xyz/params.bin"));
}

}  // namespace
}  // namespace iprune::nn
