#include "fault/recovery.hpp"

#include "util/hash.hpp"

namespace vfpga::fault {

DownloadOutcome downloadWithRetry(ConfigPort& port, const Bitstream& bs,
                                  const RecoveryOptions& opts) {
  DownloadOutcome out;
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t abortsBefore = port.stats().abortedDownloads;
    out.time += port.download(bs);
    out.aborts += port.stats().abortedDownloads - abortsBefore;
    if (!opts.verifyDownloads) break;
    const VerifyResult v = port.verifyDownload(bs);
    out.time += v.time;
    if (v.ok) break;
    out.verifyFailures += v.badFrames;
    if (attempt >= opts.maxDownloadRetries) {
      out.ok = false;
      break;
    }
    ++out.retries;
    out.time += opts.retryBackoffBase << attempt;
  }
  return out;
}

std::uint16_t stateCrc(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> packed((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) packed[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return crc16PackedBits(kCrc16Init, packed, bits.size());
}

}  // namespace vfpga::fault
