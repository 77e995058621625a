#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

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

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every parameter value and mask of the graph, concatenated.
std::vector<float> snapshot(Graph& g) {
  std::vector<float> all;
  for (const ParamRef& p : g.params()) {
    all.insert(all.end(), p.value->values().begin(), p.value->values().end());
    if (p.mask != nullptr) {
      all.insert(all.end(), p.mask->values().begin(),
                 p.mask->values().end());
    }
  }
  return all;
}

/// Byte offsets where each serialized tensor (value or mask) begins, plus
/// the offset of each has-mask flag: the file's record boundaries.
std::vector<std::size_t> record_boundaries(Graph& g) {
  std::vector<std::size_t> cuts;
  std::size_t pos = 2 * sizeof(std::uint32_t);  // magic + count
  const auto tensor_bytes = [](const Tensor& t) {
    return sizeof(std::uint32_t) + t.rank() * sizeof(std::uint64_t) +
           t.numel() * sizeof(float);
  };
  for (const ParamRef& p : g.params()) {
    cuts.push_back(pos);
    pos += tensor_bytes(*p.value);
    cuts.push_back(pos);  // has-mask flag
    pos += 1;
    if (p.mask != nullptr) {
      cuts.push_back(pos);
      pos += tensor_bytes(*p.mask);
    }
  }
  cuts.push_back(pos);  // end of file
  return cuts;
}

TEST_F(Serialize, FailedLoadLeavesGraphBitIdentical) {
  Graph saved = make_graph(10);
  auto& fc1 = dynamic_cast<Dense&>(saved.layer(1));
  fc1.weight_mask().at(0, 1) = 0.0f;
  fc1.apply_mask();
  const std::string path = temp_path("params.bin");
  ASSERT_TRUE(save_parameters(saved, path));
  const std::string good = read_bytes(path);
  const std::vector<std::size_t> cuts = record_boundaries(saved);
  ASSERT_EQ(cuts.back(), good.size());

  Graph live = make_graph(11);  // a different init the loads must not touch
  const std::vector<float> before = snapshot(live);
  ASSERT_NE(before, snapshot(saved));
  const std::string bad = temp_path("bad.bin");
  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    write_bytes(bad, bytes);
    EXPECT_FALSE(load_parameters(live, bad)) << what;
    EXPECT_EQ(snapshot(live), before) << what << " wrote into the graph";
  };

  // Truncated at every record boundary, and one byte past each (a torn
  // record), down to an empty file.
  expect_rejected("", "empty file");
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    expect_rejected(good.substr(0, cuts[i]),
                    "truncated at " + std::to_string(cuts[i]));
    if (cuts[i] + 1 < good.size()) {
      expect_rejected(good.substr(0, cuts[i] + 1),
                      "truncated at " + std::to_string(cuts[i] + 1));
    }
  }
  expect_rejected(good.substr(0, good.size() - 1), "last byte missing");
  expect_rejected(good + '\0', "trailing byte");
  // A flipped bit in every header byte (magic and tensor count).
  for (std::size_t byte = 0; byte < 2 * sizeof(std::uint32_t); ++byte) {
    std::string flipped = good;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x10);
    expect_rejected(flipped, "header byte " + std::to_string(byte));
  }
  // A flipped bit in the first tensor's shape header.
  std::string bad_shape = good;
  bad_shape[cuts[0]] = static_cast<char>(bad_shape[cuts[0]] ^ 0x01);
  expect_rejected(bad_shape, "first tensor rank");

  // The intact file still loads, and then matches the saved graph.
  ASSERT_TRUE(load_parameters(live, path));
  EXPECT_EQ(snapshot(live), snapshot(saved));
}

TEST_F(Serialize, SaveReplacesTheFileWholesale) {
  // save_parameters goes through util::atomic_write: the target holds
  // exactly the new image, with no stray temp file beside it.
  Graph a = make_graph(12);
  const std::string path = temp_path("replace.bin");
  write_bytes(path, std::string(4096, 'x'));  // longer than the image
  ASSERT_TRUE(save_parameters(a, path));
  const std::string bytes = read_bytes(path);
  EXPECT_EQ(bytes.size(), record_boundaries(a).back());
  const auto entries = std::distance(
      std::filesystem::directory_iterator(tmp.path()),
      std::filesystem::directory_iterator());
  EXPECT_EQ(entries, 1);
  Graph b = make_graph(13);
  ASSERT_TRUE(load_parameters(b, path));
  EXPECT_EQ(snapshot(b), snapshot(a));
}

}  // namespace
}  // namespace iprune::nn
