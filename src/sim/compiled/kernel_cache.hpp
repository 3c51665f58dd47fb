// CompiledKernelCache: content-addressed LRU cache of levelized fabric
// programs, keyed by the configuration-image digest (program.hpp).
//
// The digest subsumes "circuit-store key + placement": a relocated
// circuit yields a different image, hence a different key, hence a
// different program — so cache reuse can never serve a kernel for a
// configuration that is not bit-identically on the fabric. Sharing one
// cache across a DevicePool deduplicates levelization the same way the
// pool's CircuitStore deduplicates compilation and relocation.
//
// Thread safety: lookup/insert/stats are mutex-guarded so parallel
// per-device replay workers can share one cache; the cached programs
// themselves are immutable (shared_ptr<const FabricProgram>).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "sim/compiled/program.hpp"

namespace vfpga::compiled {

struct KernelCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

class CompiledKernelCache {
 public:
  /// capacity 0 = unbounded (flagged by lint rule CP003).
  explicit CompiledKernelCache(std::size_t capacity = 64)
      : capacity_(capacity) {}

  std::shared_ptr<const FabricProgram> lookup(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
    return it->second->second;
  }

  void insert(std::uint64_t key, std::shared_ptr<const FabricProgram> prog) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {  // racing builders: first insert wins
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(prog));
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
    if (capacity_ != 0 && lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  KernelCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::uint64_t, std::shared_ptr<const FabricProgram>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  KernelCacheStats stats_;
};

}  // namespace vfpga::compiled
