// Self-tests the benchmark runs before measuring: its own instruments
// must be trustworthy for the numbers to be.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The timing codec decorator is byte-transparent: on random stripes it
/// encodes, reconstructs and selects read sets exactly like the bare codec.
[[nodiscard]] std::vector<std::string> codec_transparency_failures(
    std::uint64_t seed);

/// The read checker accepts newer in-flight versions and rejects stale
/// (including failed writes superseded by a later acked one), torn and
/// never-written ones on synthetic histories.
[[nodiscard]] std::vector<std::string> checker_failures();

}  // namespace perfbench
