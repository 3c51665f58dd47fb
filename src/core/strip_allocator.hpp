// Column-strip allocator: the core bookkeeping of FPGA partitioning (§4).
//
// The device's CLB columns form a 1-D address space (column strips map to
// contiguous frame ranges, see ConfigMap), so partitions behave exactly
// like variable memory partitions in a classical OS:
//  * variable mode starts with "one standard partition ... covering the
//    whole FPGA" and splits an idle partition on each allocation;
//  * releasing merges with idle neighbours automatically (no circuit moves
//    needed for that);
//  * external fragmentation can still pin idle space between busy strips —
//    compactionPlan() computes the relocation moves (busy strips packed
//    left) whose download cost the kernel charges as garbage collection.
// Fixed mode carves the columns into immutable partitions at construction
// ("taking the corresponding sizes from system configuration file").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace vfpga {

using PartitionId = std::uint32_t;
constexpr PartitionId kNoPartition = 0xffffffffu;

enum class FitPolicy { kFirstFit, kBestFit };

struct Strip {
  PartitionId id = kNoPartition;
  std::uint16_t x0 = 0;
  std::uint16_t width = 0;
  bool busy = false;
  /// Permanently failed columns: never allocated, never merged, and pinned
  /// in place by compaction (the device shrinks around them).
  bool faulty = false;
};

class StripAllocator {
 public:
  /// Variable-size mode over `columns` device columns.
  explicit StripAllocator(std::uint16_t columns);
  /// Fixed mode: the column space is carved into the given widths (must sum
  /// to <= columns; a trailing remainder becomes one more fixed partition).
  StripAllocator(std::uint16_t columns,
                 const std::vector<std::uint16_t>& fixedWidths);

  bool isFixed() const { return fixed_; }
  std::uint16_t columns() const { return columns_; }

  /// Allocates a strip of at least `width` columns (exactly `width` in
  /// variable mode via splitting; the smallest idle fixed partition >=
  /// width in fixed mode). Returns nullopt when nothing idle fits.
  std::optional<PartitionId> allocate(std::uint16_t width,
                                      FitPolicy fit = FitPolicy::kFirstFit);

  /// Releases a busy strip; in variable mode idle neighbours merge.
  void release(PartitionId id);

  const Strip& strip(PartitionId id) const;
  /// The strip covering `column`; throws std::out_of_range beyond the
  /// device.
  const Strip& stripAt(std::uint16_t column) const;
  /// All strips, left to right (a view into the allocator's bookkeeping;
  /// invalidated by any mutating call).
  const std::vector<Strip>& strips() const { return strips_; }

  /// Verifies the AL* invariants (coverage, ordering, merge discipline) and
  /// throws analysis::InvariantViolation on any breach. Runs automatically
  /// after every mutation when VFPGA_CHECK_INVARIANTS is enabled.
  void checkInvariants() const;

  // ---- quarantine (fault tolerance) -----------------------------------------
  /// Marks the strip containing `column` permanently faulty. The strip must
  /// be idle (the caller relocates or drains any occupant first); in
  /// variable mode only the single failed column is quarantined (the strip
  /// is split around it), in fixed mode the whole fixed partition is lost.
  void quarantineColumn(std::uint16_t column);
  /// Reverses quarantineColumn() for a transient fault that healed: the
  /// faulty strip containing `column` becomes allocatable again and (in
  /// variable mode) merges with idle neighbours. No-op when the column is
  /// not quarantined.
  void unquarantineColumn(std::uint16_t column);
  /// Total columns lost to quarantine.
  std::uint16_t quarantinedColumns() const;
  /// Widest contiguous run of non-faulty columns (busy or idle): the upper
  /// bound on any allocation, ever, with the current quarantine map.
  std::uint16_t largestUsableSpan() const;
  /// Largest idle run achievable by compaction: per segment between faulty
  /// pins, the idle columns can be consolidated into one run.
  std::uint16_t largestFreeAfterCompaction() const;

  // ---- capacity queries ------------------------------------------------------
  std::uint16_t totalFree() const;
  std::uint16_t largestFree() const;
  /// True when `width` could be satisfied *after* compaction but not now —
  /// exactly the starvation condition §4 says GC must resolve.
  bool wouldFitAfterCompaction(std::uint16_t width) const;
  /// External fragmentation in [0, 1]: 1 - largestFree / totalFree.
  double externalFragmentation() const;

  // ---- compaction -------------------------------------------------------------
  struct Move {
    PartitionId id;
    std::uint16_t fromX0;
    std::uint16_t toX0;
  };
  /// Packs busy strips to the left; applies the moves to the allocator's
  /// own bookkeeping and returns them so the caller can relocate and
  /// re-download the affected circuits. Variable mode only.
  std::vector<Move> compact();

  // ---- repair -----------------------------------------------------------------
  /// Auto-repair for the AL004 finding (adjacent idle strips that were not
  /// merged): merges every mergeable idle pair and returns how many merges
  /// ran. A healthy allocator returns 0 — release() keeps the table merged
  /// — so a nonzero return means external bookkeeping corruption was
  /// repaired. Variable mode only (fixed partitions never merge).
  std::size_t repairUnmergedIdle();

 private:
  std::uint16_t columns_;
  bool fixed_;
  PartitionId next_ = 1;
  std::vector<Strip> strips_;  // ordered by x0, covering [0, columns)

  std::size_t indexOf(PartitionId id) const;
  void mergeIdleAround(std::size_t idx);
};

}  // namespace vfpga
