#pragma once
// Model parameter (de)serialization.
//
// The graph *structure* is code (src/apps builders); only parameters and
// masks are persisted. Benches cache trained/pruned models in an artifacts
// directory so the Table III flow is not recomputed by every binary.

#include <string>

#include "nn/graph.hpp"

namespace iprune::nn {

/// Write all parameters (values + masks where present) of the graph via
/// util::atomic_write: a reader sees the old file or the whole new one.
/// Returns false on I/O failure.
[[nodiscard]] bool save_parameters(Graph& graph, const std::string& path);

/// Load parameters saved by save_parameters into a structurally identical
/// graph. All or nothing: the whole file is parsed and validated into
/// staging copies first, so on false (I/O failure, structural mismatch,
/// truncation, trailing bytes) the graph is left bit-identical.
[[nodiscard]] bool load_parameters(Graph& graph, const std::string& path);

}  // namespace iprune::nn
