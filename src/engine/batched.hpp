#pragma once
// Batched lockstep execution of a cohort of identical-architecture
// devices (structure-of-arrays fleet mode).
//
// Within a fleet group, devices share everything *structural* — lowered
// plans, BSR sparsity pattern, NVM layout, supply profile, outage
// schedule, preservation mode — and differ only in data values (weights,
// biases, quantization scales, input samples). Since the engine's control
// flow never branches on data values, every member of such a cohort
// traverses the exact same sequence of chargeable events with the exact
// same latencies, energies and fault ordinals. BatchedEngine exploits
// that: member 0 (the leader) runs the real device timeline — every
// charge, brown-out, recharge and fault-hook event — while the followers
// perform only the per-member value work (their own NVM reads, MACs,
// requantization, commit payloads). One leader event advances the whole
// cohort.
//
// Follower value work is the scalability limit (it cannot be shared), so
// it takes the raw path: value reads/writes go straight at the NVM
// backing store (legal inside the envelope — no corruption model, no
// charge accounting on value traffic), and followers stage nothing.
// After the leader's commit resolves, each follower computes its payload
// and memcpys only the leader's surviving byte prefix into place; when a
// commit lands zero bytes the follower skips the job entirely (the retry
// recomputes it).
//
// Correctness contract: each member's logits are bit-identical to what
// its own standalone stepping-mode run would produce, and the leader's
// timeline/stats are bit-identical to any member's (they are member-
// invariant by construction). Torn commits replay exactly: the leader's
// kept-prefix byte count truncates every follower's payload at the same
// offset, mid-field tears included.
//
// Eligibility (enforced by the ctor): no NVM corruption (integrity layer
// unarmed, psum_slots == 1), no per-device re-seeded random schedules,
// telemetry off. The fleet layer falls back to per-device simulation for
// anything else, and verifies lockstep_compatible() per member first.

#include <span>
#include <vector>

#include "engine/engine.hpp"

namespace iprune::engine {

/// One cohort member. Non-owning; both must outlive the engine. The
/// device of member 0 is the cohort's timeline; follower devices are only
/// used for their NVM images (their clocks stay parked after deployment).
struct BatchedMember {
  DeployedModel* model = nullptr;
  device::Msp430Device* device = nullptr;
};

class BatchedEngine {
 public:
  /// Throws std::invalid_argument when the cohort is empty, a member is
  /// null, a member is not lockstep-compatible with the leader, or the
  /// configuration is outside the lockstep envelope (integrity layer
  /// armed, tracing enabled).
  explicit BatchedEngine(std::vector<BatchedMember> members);

  /// Run one inference per member, in lockstep (samples[m] feeds member
  /// m). Returns one InferenceResult per member: logits are per-member,
  /// stats/per_node are the (member-invariant) leader timeline.
  std::vector<InferenceResult> run(std::span<const nn::Tensor> samples);

  /// Same, but with pre-quantized input payloads (one per member, each
  /// quantize_input() of the member's sample). The fleet layer quantizes
  /// every member's sample stream once up front — re-slicing the batch
  /// tensor and re-quantizing floats every round was pure per-member
  /// overhead (the payload is invariant across engine restarts anyway).
  std::vector<InferenceResult> run_quantized(
      std::span<const std::span<const std::int16_t>> inputs);

  /// The engine's input quantization, exactly as stepping mode performs
  /// it per inference: clamp_i16(lround(sample[i] / input_scale)).
  [[nodiscard]] static std::vector<std::int16_t> quantize_input(
      std::span<const float> sample, float input_scale);

  /// Structural equality of two deployments: identical lowered graphs,
  /// tile plans, BSR sparsity patterns, NVM layout addresses and engine
  /// configuration. Data values (weights, biases, scales) may differ.
  [[nodiscard]] static bool lockstep_compatible(const DeployedModel& a,
                                                const DeployedModel& b);

  std::size_t max_restarts = 64;

 private:
  // Batched node executors; mirror IntermittentEngine's control flow
  // exactly (see engine.cpp). Return false only when kAccumulateInVm
  // execution was interrupted by a power failure.
  bool run_gemm(const LoweredNode& ln);
  bool run_gemm_immediate(const LoweredNode& ln);
  bool run_gemm_task(const LoweredNode& ln);
  bool run_gemm_accumulate(const LoweredNode& ln);
  bool run_pool(const LoweredNode& ln);
  bool run_copy(const LoweredNode& ln);

  [[nodiscard]] bool charge_input_tile_reads(const LoweredNode& ln,
                                             std::size_t bk_actual,
                                             std::size_t bc_actual);

  /// Hoist the per-member GemmDeployment pointers for one node into
  /// gds_ (pointer chases out of the per-job loops).
  void hoist_gemms(const LoweredNode& ln);

  /// Classic (unprotected) progress machinery — the only kind inside the
  /// lockstep envelope.
  void stage_progress(device::WriteBatch& batch) const;
  [[nodiscard]] bool recover_progress();

  std::vector<BatchedMember> members_;
  device::Msp430Device& leader_;   // members_[0].device
  const EngineConfig& config_;     // leader model's config
  device::Address progress_addr_;  // identical across members (verified)
  device::WriteBatch batch_;       // leader's staging buffer (tearing)

  std::uint32_t job_counter_ = 0;
  bool pending_recovery_ = false;
  InferenceStats* active_stats_ = nullptr;

  // Reused value-work scratch (member dimension = cohort size).
  std::vector<std::uint8_t*> raws_;            // NVM backing store/member
  std::vector<std::size_t> addrs_;             // gather addresses per k
  std::vector<std::size_t> tile_addrs_;        // gather addresses per job*k
  std::vector<const std::int16_t*> wblocks_;   // per-member weight block
  std::vector<const GemmDeployment*> gds_;     // per-member gemm (hoisted)
  std::vector<std::int32_t> tiles_;            // per-member VM tile
};

}  // namespace iprune::engine
