#include "fault/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fabric/bitstream.hpp"
#include "fault/recovery.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace vfpga::fault {

namespace {

constexpr char kMagic[4] = {'V', 'F', 'C', 'K'};
// magic + version + generation + payloadLen.
constexpr std::size_t kHeaderBytes = 4 + 2 + 8 + 4;

void putStr(std::vector<std::uint8_t>& out, const std::string& s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string getStr(ByteReader& rd) {
  const auto s = rd.bytes(rd.u32());
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> encodePayload(const TaskCheckpoint& ck) {
  std::vector<std::uint8_t> out;
  putStr(out, ck.task);
  putU64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                  ck.priority)));
  putStr(out, ck.device);
  putU16(out, ck.placementX0);
  putU16(out, ck.placementWidth);
  putU32(out, static_cast<std::uint32_t>(ck.ops.size()));
  for (const CheckpointOp& op : ck.ops) {
    out.push_back(op.isFpga ? 1 : 0);
    if (op.isFpga) {
      putStr(out, op.config);
      putU16(out, op.configWidth);
      putU64(out, op.cycles);
    } else {
      putU64(out, static_cast<std::uint64_t>(op.cpuNs));
    }
  }
  // Register snapshot: bit count, packed bytes, then its own CRC so
  // targeted register rot is caught even inside an otherwise intact
  // payload (the same guard the loader applies to parked snapshots).
  putU32(out, static_cast<std::uint32_t>(ck.registers.size()));
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < ck.registers.size(); ++i) {
    acc = static_cast<std::uint8_t>(acc | (ck.registers[i] ? 1 : 0)
                                              << (i % 8));
    if (i % 8 == 7) {
      out.push_back(acc);
      acc = 0;
    }
  }
  if (ck.registers.size() % 8 != 0) out.push_back(acc);
  putU16(out, stateCrc(ck.registers));
  auto putIds = [&out](const std::vector<std::uint32_t>& ids) {
    putU32(out, static_cast<std::uint32_t>(ids.size()));
    for (const std::uint32_t id : ids) putU32(out, id);
  };
  putIds(ck.overlayResidency);
  putIds(ck.segmentResidency);
  putIds(ck.pageResidency);
  putU32(out, static_cast<std::uint32_t>(ck.ioBindings.size()));
  for (const std::string& b : ck.ioBindings) putStr(out, b);
  return out;
}

/// Task names become file stems; anything outside [A-Za-z0-9._-] maps to
/// '_' so a name can never escape the store directory.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string("_") : out;
}

}  // namespace

std::vector<std::uint8_t> encodeCheckpoint(const TaskCheckpoint& ck,
                                           std::uint64_t generation) {
  const std::vector<std::uint8_t> payload = encodePayload(ck);
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + 2);
  out.insert(out.end(), kMagic, kMagic + 4);
  putU16(out, kCheckpointVersion);
  putU64(out, generation);
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  putU16(out, crc16Bytes(payload));
  return out;
}

DecodeResult decodeCheckpoint(const std::vector<std::uint8_t>& bytes) {
  DecodeResult r;
  if (bytes.size() < kHeaderBytes + 2 ||
      !std::equal(kMagic, kMagic + 4, bytes.begin())) {
    r.diagnostic = "bad magic (not a checkpoint file)";
    return r;
  }
  r.magicOk = true;
  ByteReader hdr{std::span(bytes).subspan(4)};
  r.version = hdr.u16();
  if (r.version != kCheckpointVersion) {
    r.diagnostic = "unsupported version " + std::to_string(r.version);
    return r;
  }
  r.versionSupported = true;
  r.generation = hdr.u64();
  const std::uint32_t payloadLen = hdr.u32();
  if (bytes.size() != kHeaderBytes + payloadLen + 2) {
    r.diagnostic = "length mismatch (header claims " +
                   std::to_string(payloadLen) + " payload bytes, file has " +
                   std::to_string(bytes.size() - kHeaderBytes - 2) + ")";
    return r;
  }
  r.lengthOk = true;
  const std::uint8_t* payload = bytes.data() + kHeaderBytes;
  const std::uint16_t storedCrc = static_cast<std::uint16_t>(
      bytes[kHeaderBytes + payloadLen] |
      (bytes[kHeaderBytes + payloadLen + 1] << 8));
  if (crc16Bytes({payload, payloadLen}) != storedCrc) {
    r.diagnostic = "payload CRC mismatch";
    return r;
  }
  r.payloadCrcOk = true;

  // Payload overruns poison the reader, so a truncation surfaces as one
  // "payload truncated" diagnostic instead of garbage fields, and every
  // count is checked against the bytes left before it is looped on.
  ByteReader rd({payload, payloadLen});
  TaskCheckpoint ck;
  ck.task = getStr(rd);
  ck.priority = static_cast<int>(static_cast<std::int64_t>(rd.u64()));
  ck.device = getStr(rd);
  ck.placementX0 = rd.u16();
  ck.placementWidth = rd.u16();
  const std::uint32_t opCount = rd.u32();
  rd.fits(opCount, 1 + 8);  // the shortest op: flag + CPU time
  for (std::uint32_t i = 0; i < opCount && rd.ok(); ++i) {
    CheckpointOp op;
    op.isFpga = rd.u8() != 0;
    if (op.isFpga) {
      op.config = getStr(rd);
      op.configWidth = rd.u16();
      op.cycles = rd.u64();
    } else {
      op.cpuNs = static_cast<SimDuration>(rd.u64());
    }
    ck.ops.push_back(std::move(op));
  }
  const std::uint32_t regBits = rd.u32();
  const auto regBytes = rd.bytes((std::uint64_t{regBits} + 7) / 8);
  if (rd.ok()) {
    ck.registers.resize(regBits);
    for (std::uint32_t i = 0; i < regBits; ++i) {
      ck.registers[i] = (regBytes[i / 8] >> (i % 8)) & 1;
    }
  }
  const std::uint16_t storedStateCrc = rd.u16();
  auto getIds = [&rd](std::vector<std::uint32_t>& ids) {
    const std::uint32_t n = rd.u32();
    rd.fits(n, 4);
    for (std::uint32_t i = 0; i < n && rd.ok(); ++i) ids.push_back(rd.u32());
  };
  getIds(ck.overlayResidency);
  getIds(ck.segmentResidency);
  getIds(ck.pageResidency);
  const std::uint32_t bindings = rd.u32();
  rd.fits(bindings, 4);
  for (std::uint32_t i = 0; i < bindings && rd.ok(); ++i) {
    ck.ioBindings.push_back(getStr(rd));
  }
  if (!rd.ok()) {
    r.diagnostic = "payload truncated";
    return r;
  }
  if (stateCrc(ck.registers) != storedStateCrc) {
    r.diagnostic = "register snapshot CRC mismatch";
    return r;
  }
  r.stateCrcOk = true;
  r.checkpoint = std::move(ck);
  r.ok = true;
  return r;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string CheckpointStore::slotPath(const std::string& task,
                                      unsigned slot) const {
  return dir_ + "/" + sanitize(task) + ".g" + std::to_string(slot) + ".ck";
}

std::vector<std::string> CheckpointStore::slotPaths(
    const std::string& task) const {
  return {slotPath(task, 0), slotPath(task, 1)};
}

std::vector<std::string> CheckpointStore::taskNames() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    const std::string stem = entry.path().filename().string();
    // "<task>.g<slot>.ck"
    const std::size_t tail = stem.rfind(".g");
    if (tail == std::string::npos || stem.size() < tail + 5 ||
        stem.substr(stem.size() - 3) != ".ck") {
      continue;
    }
    names.push_back(stem.substr(0, tail));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

namespace {

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

std::uint64_t CheckpointStore::latestOnDisk(const std::string& task) const {
  std::uint64_t latest = 0;
  for (unsigned slot = 0; slot < 2; ++slot) {
    const std::vector<std::uint8_t> bytes =
        readAll(slotPath(task, slot));
    if (bytes.size() < kHeaderBytes ||
        !std::equal(kMagic, kMagic + 4, bytes.begin())) {
      continue;
    }
    ByteReader hdr{std::span(bytes).subspan(4)};
    hdr.u16();  // version — numbering must advance past even bad slots
    latest = std::max(latest, hdr.u64());
  }
  return latest;
}

CheckpointStore::WriteResult CheckpointStore::write(const TaskCheckpoint& ck) {
  std::uint64_t& last = lastGen_[ck.task];
  if (last == 0) last = latestOnDisk(ck.task);
  const std::uint64_t gen = last + 1;
  last = gen;
  const std::vector<std::uint8_t> bytes = encodeCheckpoint(ck, gen);
  WriteResult wr;
  wr.generation = gen;
  wr.bytes = bytes.size();
  wr.path = slotPath(ck.task, static_cast<unsigned>(gen & 1));
  std::ofstream out(wr.path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("checkpoint write failed: " + wr.path);
  }
  ++stats_.writes;
  stats_.bytesWritten += wr.bytes;
  return wr;
}

CheckpointStore::LoadResult CheckpointStore::load(
    const std::string& task) const {
  ++stats_.loads;
  LoadResult lr;
  struct Slot {
    bool present = false;
    DecodeResult decoded;
    bool valid = false;
  };
  Slot slots[2];
  for (unsigned s = 0; s < 2; ++s) {
    const std::vector<std::uint8_t> bytes = readAll(slotPath(task, s));
    if (bytes.empty()) continue;
    slots[s].present = true;
    slots[s].decoded = decodeCheckpoint(bytes);
    DecodeResult& d = slots[s].decoded;
    if (d.ok && (d.generation & 1) != s) {
      // The slot parity encodes which generation a slot may legally hold;
      // a mismatch means the header generation was re-stamped after the
      // write (the stale-generation fault class).
      d.ok = false;
      d.diagnostic = "stale generation " + std::to_string(d.generation) +
                     " in slot " + std::to_string(s);
    }
    if (d.ok) {
      slots[s].valid = true;
    } else {
      ++lr.corruptSlots;
      ++stats_.corruptSlots;
      lr.slotDiagnostics.push_back("slot " + std::to_string(s) + ": " +
                                   d.diagnostic);
    }
  }
  int best = -1;
  for (int s = 0; s < 2; ++s) {
    if (slots[s].valid &&
        (best < 0 ||
         slots[s].decoded.generation > slots[best].decoded.generation)) {
      best = s;
    }
  }
  if (best < 0) {
    ++stats_.failedLoads;
    lr.diagnostic = "no intact checkpoint for '" + task + "'";
    for (const std::string& d : lr.slotDiagnostics) {
      lr.diagnostic += "; " + d;
    }
    if (lr.slotDiagnostics.empty()) lr.diagnostic += " (no slots on disk)";
    return lr;
  }
  lr.ok = true;
  lr.checkpoint = slots[best].decoded.checkpoint;
  lr.generation = slots[best].decoded.generation;
  // A rejected slot always means this load survived a corruption: by the
  // parity protocol the other slot held the generation adjacent to the one
  // returned, so recovery fell back past it to the previous good write.
  lr.fellBack = lr.corruptSlots > 0;
  if (lr.fellBack) ++stats_.fallbacks;
  return lr;
}

}  // namespace vfpga::fault
