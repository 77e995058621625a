// A corrupted NVM partial sum can hold any int32. The immediate-mode psum
// chain adds the next k-tile's contribution to it, and that add used to be
// a plain signed int32 `+`, which overflows (undefined behaviour) once a
// bit flip lands near the top of the range. The engines now add in
// uint32_t and cast back: on two's-complement targets that is the same
// bits the old add produced, so every digest holds, but without UB.
//
// Device 7 of the fleet below (the `corrupt` group of the fleet_mix
// benchmark: write BER 1e-4, read BER 1e-9, integrity armed, seed 1)
// reads a partial sum that a bit flip drove to about INT32_MIN, and then
// adds a negative contribution to it. Under -fsanitize=undefined (the CI
// fault job runs CorruptionModel.*) the unfixed add halts this test.

#include <gtest/gtest.h>

#include <vector>

#include "fleet/device_sim.hpp"
#include "fleet/spec.hpp"

namespace iprune::fleet {
namespace {

constexpr std::size_t kOverflowDevice = 7;

DeviceSpec overflowing_device() {
  FleetSpec spec;
  spec.seed = 1;
  spec.inferences = 16;
  DeviceGroup group;
  group.name = "corrupt";
  group.count = 8;
  group.model = ModelKind::kTiny;
  group.mode = engine::PreservationMode::kImmediate;
  group.power = PowerProfile::strong();
  group.write_ber = 1.0e-4;
  group.read_ber = 1.0e-9;
  spec.groups = {group};
  return spec.resolve().at(kOverflowDevice);
}

TEST(CorruptionModel, CorruptedPartialSumAddWrapsWithoutOverflow) {
  const DeviceSpec spec = overflowing_device();
  const DeviceResult first = run_device(spec);
  EXPECT_TRUE(first.completed) << first.error;
  EXPECT_EQ(first.inferences_done, spec.inferences);

  // Deterministic: the wrapped sum is a defined value, not UB.
  const DeviceResult again = run_device(spec);
  EXPECT_EQ(first.logits_checksum, again.logits_checksum);

  // The flips reached the served logits: the same device on perfect
  // memory serves different ones.
  DeviceSpec clean = spec;
  clean.write_ber = 0.0;
  clean.read_ber = 0.0;
  EXPECT_NE(first.logits_checksum, run_device(clean).logits_checksum);
}

}  // namespace
}  // namespace iprune::fleet
