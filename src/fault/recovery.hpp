// Recovery building blocks of the OS install path (core/circuit_io):
// verified downloads with bounded exponential-backoff retry, and the CRC
// used to protect saved register snapshots.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/config_port.hpp"
#include "sim/types.hpp"

namespace vfpga::fault {

/// Knobs for the download path. All defaults are *off* so that managers
/// constructed without a fault plan behave (and cost) exactly as before;
/// the kernel switches verification on when a FaultPlan is installed.
struct RecoveryOptions {
  /// Read back and CRC-check every download; mismatches trigger retries.
  bool verifyDownloads = false;
  /// Retries after the first failed attempt before giving up.
  int maxDownloadRetries = 0;
  /// Backoff before retry k is retryBackoffBase << k.
  SimDuration retryBackoffBase = micros(50);
};

struct DownloadOutcome {
  bool ok = true;
  int retries = 0;
  std::uint64_t aborts = 0;          ///< truncated transfers seen
  std::uint64_t verifyFailures = 0;  ///< bad frames seen across attempts
  SimDuration time = 0;              ///< transfer + verify + backoff time
};

/// Downloads `bs`, optionally verifying by readback and retrying with
/// exponential backoff up to the configured budget. With verification off
/// this is exactly one port.download().
DownloadOutcome downloadWithRetry(ConfigPort& port, const Bitstream& bs,
                                  const RecoveryOptions& opts);

/// CRC-16 over a saved FF-state snapshot.
std::uint16_t stateCrc(const std::vector<bool>& bits);

}  // namespace vfpga::fault
