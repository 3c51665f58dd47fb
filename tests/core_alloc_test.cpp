// OS bookkeeping: strip allocator (variable and fixed partitions,
// splitting, merging, compaction), page manager, segment manager port
// check, I/O mux.
#include <gtest/gtest.h>

#include "core/io_mux.hpp"
#include "core/page_manager.hpp"
#include "core/segment_manager.hpp"
#include "fabric/device_family.hpp"
#include "core/strip_allocator.hpp"
#include "sim/rng.hpp"

namespace vfpga {
namespace {

// -------------------------------------------------------- StripAllocator

TEST(StripAllocator, StartsWithOneWholePartition) {
  StripAllocator a(12);
  auto strips = a.strips();
  ASSERT_EQ(strips.size(), 1u);
  EXPECT_EQ(strips[0].x0, 0);
  EXPECT_EQ(strips[0].width, 12);
  EXPECT_FALSE(strips[0].busy);
  EXPECT_EQ(a.totalFree(), 12);
  EXPECT_EQ(a.largestFree(), 12);
}

TEST(StripAllocator, SplitsOnAllocate) {
  StripAllocator a(12);
  auto p = a.allocate(5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.strip(*p).x0, 0);
  EXPECT_EQ(a.strip(*p).width, 5);
  EXPECT_TRUE(a.strip(*p).busy);
  EXPECT_EQ(a.totalFree(), 7);
  EXPECT_EQ(a.strips().size(), 2u);
}

TEST(StripAllocator, ExactFitDoesNotSplit) {
  StripAllocator a(8);
  auto p = a.allocate(8);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.strips().size(), 1u);
  EXPECT_EQ(a.totalFree(), 0);
  EXPECT_FALSE(a.allocate(1).has_value());
}

TEST(StripAllocator, ReleaseMergesIdleNeighbours) {
  StripAllocator a(12);
  auto p1 = a.allocate(4);
  auto p2 = a.allocate(4);
  auto p3 = a.allocate(4);
  ASSERT_TRUE(p1 && p2 && p3);
  a.release(*p1);
  a.release(*p3);
  EXPECT_EQ(a.strips().size(), 3u);  // free(4) busy(4) free(4)
  EXPECT_EQ(a.largestFree(), 4);
  a.release(*p2);
  EXPECT_EQ(a.strips().size(), 1u);  // all merged back
  EXPECT_EQ(a.largestFree(), 12);
}

TEST(StripAllocator, DoubleReleaseThrows) {
  StripAllocator a(8);
  auto p = a.allocate(3);
  a.release(*p);
  EXPECT_THROW(a.release(*p), std::logic_error);
}

TEST(StripAllocator, FirstFitVsBestFit) {
  StripAllocator a(16);
  auto p1 = a.allocate(4);   // [0,4)
  auto p2 = a.allocate(6);   // [4,10)
  auto p3 = a.allocate(6);   // [10,16)
  a.release(*p1);            // hole of 4 at the front
  a.release(*p3);            // hole of 6 at the back
  (void)p2;
  // First fit for width 3 takes the front hole.
  auto ff = a.allocate(3, FitPolicy::kFirstFit);
  ASSERT_TRUE(ff);
  EXPECT_EQ(a.strip(*ff).x0, 0);
  a.release(*ff);
  // Best fit for width 3 prefers the *front* hole too (4 < 6); for width 5
  // only the back hole works.
  auto bf = a.allocate(3, FitPolicy::kBestFit);
  ASSERT_TRUE(bf);
  EXPECT_EQ(a.strip(*bf).x0, 0);
  auto bf5 = a.allocate(5, FitPolicy::kBestFit);
  ASSERT_TRUE(bf5);
  EXPECT_EQ(a.strip(*bf5).x0, 10);
}

TEST(StripAllocator, FragmentationMetrics) {
  StripAllocator a(16);
  auto p1 = a.allocate(4);
  auto p2 = a.allocate(4);
  auto p3 = a.allocate(4);
  auto p4 = a.allocate(4);
  a.release(*p1);
  a.release(*p3);
  (void)p2;
  (void)p4;
  // Free: two holes of 4; largest 4, total 8.
  EXPECT_EQ(a.totalFree(), 8);
  EXPECT_EQ(a.largestFree(), 4);
  EXPECT_DOUBLE_EQ(a.externalFragmentation(), 0.5);
  EXPECT_TRUE(a.wouldFitAfterCompaction(6));
  EXPECT_FALSE(a.wouldFitAfterCompaction(4));  // already fits
  EXPECT_FALSE(a.wouldFitAfterCompaction(9));  // never fits
}

TEST(StripAllocator, CompactionPacksBusyLeft) {
  StripAllocator a(16);
  auto p1 = a.allocate(4);  // [0,4)
  auto p2 = a.allocate(4);  // [4,8)
  auto p3 = a.allocate(4);  // [8,12)
  a.release(*p1);
  a.release(*p3);
  (void)p2;
  auto moves = a.compact();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].id, *p2);
  EXPECT_EQ(moves[0].fromX0, 4);
  EXPECT_EQ(moves[0].toX0, 0);
  EXPECT_EQ(a.largestFree(), 12);
  EXPECT_DOUBLE_EQ(a.externalFragmentation(), 0.0);
  // Ids stay valid after compaction.
  EXPECT_EQ(a.strip(*p2).x0, 0);
  a.release(*p2);
  EXPECT_EQ(a.largestFree(), 16);
}

TEST(StripAllocator, CompactionPreservesOrderOfBusyStrips) {
  StripAllocator a(20);
  std::vector<PartitionId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(*a.allocate(4));
  a.release(ids[0]);
  a.release(ids[2]);
  auto moves = a.compact();
  EXPECT_EQ(moves.size(), 3u);  // ids 1, 3, 4 move left
  EXPECT_EQ(a.strip(ids[1]).x0, 0);
  EXPECT_EQ(a.strip(ids[3]).x0, 4);
  EXPECT_EQ(a.strip(ids[4]).x0, 8);
}

TEST(StripAllocator, FixedModeNeverSplits) {
  StripAllocator a(12, {4, 4, 4});
  EXPECT_TRUE(a.isFixed());
  auto p = a.allocate(2);  // gets a whole 4-wide partition
  ASSERT_TRUE(p);
  EXPECT_EQ(a.strip(*p).width, 4);
  EXPECT_EQ(a.strips().size(), 3u);
  EXPECT_THROW(a.compact(), std::logic_error);
}

TEST(StripAllocator, FixedModeBestFitPicksSmallestSufficient) {
  StripAllocator a(12, {2, 6, 4});
  auto p = a.allocate(3, FitPolicy::kBestFit);
  ASSERT_TRUE(p);
  EXPECT_EQ(a.strip(*p).width, 4);
}

TEST(StripAllocator, FixedModeRemainderBecomesPartition) {
  StripAllocator a(10, {3, 3});
  EXPECT_EQ(a.strips().size(), 3u);
  EXPECT_EQ(a.strips()[2].width, 4);
}

TEST(StripAllocator, RejectsDegenerateInputs) {
  EXPECT_THROW(StripAllocator(0), std::invalid_argument);
  EXPECT_THROW(StripAllocator(8, {4, 8}), std::invalid_argument);
  EXPECT_THROW(StripAllocator(8, {0}), std::invalid_argument);
  StripAllocator a(8);
  EXPECT_THROW(a.allocate(0), std::invalid_argument);
  EXPECT_THROW(a.strip(999), std::out_of_range);
}

TEST(StripAllocator, FixedModeDoubleReleaseThrows) {
  StripAllocator a(12, {4, 4, 4});
  auto p = a.allocate(4);
  ASSERT_TRUE(p);
  a.release(*p);
  EXPECT_THROW(a.release(*p), std::logic_error);
  // The failed release must not have corrupted the partition table.
  EXPECT_EQ(a.strips().size(), 3u);
  EXPECT_EQ(a.totalFree(), 12);
}

TEST(StripAllocator, FixedModeZeroWidthAllocateThrows) {
  StripAllocator a(12, {4, 4, 4});
  EXPECT_THROW(a.allocate(0), std::invalid_argument);
  EXPECT_THROW(a.allocate(0, FitPolicy::kBestFit), std::invalid_argument);
  EXPECT_EQ(a.totalFree(), 12);  // nothing was handed out
}

TEST(StripAllocator, CompactAfterReleaseMovesOnlyDisplacedStrips) {
  StripAllocator a(16);
  auto p1 = a.allocate(4);  // [0,4)
  auto p2 = a.allocate(4);  // [4,8)
  auto p3 = a.allocate(4);  // [8,12)
  ASSERT_TRUE(p1 && p2 && p3);
  a.release(*p2);  // hole in the middle: busy(4) free(4) busy(4) free(4)
  const auto moves = a.compact();
  // p1 already sits at 0 — only p3 moves, into the hole at column 4.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].id, *p3);
  EXPECT_EQ(moves[0].toX0, 4);
  EXPECT_EQ(a.strip(*p3).x0, 4);
  EXPECT_EQ(a.largestFree(), 8);  // trailing holes merged into one
  EXPECT_EQ(a.strips().size(), 3u);
}

TEST(StripAllocator, StripsViewIsStableReference) {
  StripAllocator a(8);
  const std::vector<Strip>* first = &a.strips();
  EXPECT_EQ(first, &a.strips());  // accessor returns a view, not a copy
}

TEST(StripAllocator, ChurnNeverLosesColumns) {
  // Property test: after any sequence of allocate/release, busy + free
  // widths cover exactly the device and strips tile [0, columns).
  StripAllocator a(24);
  Rng rng(99);
  std::vector<PartitionId> held;
  for (int step = 0; step < 2000; ++step) {
    if (!held.empty() && rng.bernoulli(0.45)) {
      std::size_t i = rng.below(held.size());
      a.release(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      auto p = a.allocate(
          static_cast<std::uint16_t>(1 + rng.below(6)),
          rng.bernoulli(0.5) ? FitPolicy::kFirstFit : FitPolicy::kBestFit);
      if (p) held.push_back(*p);
    }
    if (step % 97 == 0 && !a.isFixed()) a.compact();
    std::uint16_t covered = 0;
    std::uint16_t expectX = 0;
    for (const Strip& s : a.strips()) {
      ASSERT_EQ(s.x0, expectX);
      ASSERT_GT(s.width, 0);
      expectX = static_cast<std::uint16_t>(expectX + s.width);
      covered = static_cast<std::uint16_t>(covered + s.width);
    }
    ASSERT_EQ(covered, 24);
  }
}

// ------------------------------------------------------------ PageManager

ConfigPortSpec pagePortSpec() {
  ConfigPortSpec s;
  s.partialReconfig = true;
  s.bitPeriod = nanos(10);
  s.frameOverhead = nanos(100);
  return s;
}

TEST(PageManager, RequiresPartialPort) {
  ConfigPortSpec serial;
  serial.partialReconfig = false;
  EXPECT_THROW(PageManager(serial, 128), std::invalid_argument);
}

TEST(PageManager, ColdAccessFaultsEveryPage) {
  PageManager pm(pagePortSpec(), 128, PageManagerOptions{4, 16});
  ConfigId f = pm.addFunction(10);  // 10 frames -> 3 pages of 4 frames
  EXPECT_EQ(pm.pagesOf(f), 3u);
  auto r = pm.access(f);
  EXPECT_EQ(r.pageFaults, 3u);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_GT(r.stall, 0u);
  // Warm access: no faults, no stall.
  auto r2 = pm.access(f);
  EXPECT_EQ(r2.pageFaults, 0u);
  EXPECT_EQ(r2.stall, 0u);
}

TEST(PageManager, StallMatchesPortArithmetic) {
  auto spec = pagePortSpec();
  PageManager pm(spec, 128, PageManagerOptions{2, 8});
  ConfigId f = pm.addFunction(2);  // one page of 2 frames
  auto r = pm.access(f);
  EXPECT_EQ(r.stall, 2 * (spec.frameOverhead + 128 * spec.bitPeriod));
  EXPECT_EQ(pm.bitsMoved(), 2u * 128u);
}

TEST(PageManager, CapacityEvictionLruVsFifo) {
  // Two functions of 2 pages each; capacity 3 pages. Access pattern
  // A A B: with LRU, B evicts A's cold page; A's hot pages survive as far
  // as capacity allows.
  for (auto policy : {ReplacementPolicy::kLru, ReplacementPolicy::kFifo}) {
    PageManager pm(pagePortSpec(), 64, PageManagerOptions{1, 3, policy});
    ConfigId fa = pm.addFunction(2);
    ConfigId fb = pm.addFunction(2);
    pm.access(fa);
    pm.access(fa);
    auto r = pm.access(fb);
    EXPECT_EQ(r.pageFaults, 2u);
    EXPECT_EQ(r.evictions, 1u);  // capacity 3, 2 resident + 2 new
    EXPECT_EQ(pm.residentPages(), 3u);
  }
}

TEST(PageManager, LruBeatsFifoOnLoopWithReuse) {
  // Pattern: a hot page touched between every cold-page touch, with the
  // cold pages cycling under capacity pressure. LRU never evicts the hot
  // page (always most-recently used); FIFO evicts it as the oldest load.
  auto run = [&](ReplacementPolicy policy) {
    PageManager pm(pagePortSpec(), 64, PageManagerOptions{1, 3, policy});
    ConfigId hot = pm.addFunction(1);
    ConfigId cold = pm.addFunction(4);  // 4 pages > capacity
    pm.access(hot);
    std::uint64_t hotFaults = 0;
    for (int i = 0; i < 12; ++i) {
      pm.accessPage(cold, static_cast<std::uint32_t>(i % 4));
      auto r = pm.accessPage(hot, 0);
      hotFaults += r.pageFaults;
    }
    return hotFaults;
  };
  EXPECT_EQ(run(ReplacementPolicy::kLru), 0u);
  EXPECT_GT(run(ReplacementPolicy::kFifo), 0u);
}

TEST(PageManager, OversizedWorkingSetRejected) {
  PageManager pm(pagePortSpec(), 64, PageManagerOptions{1, 4});
  ConfigId f = pm.addFunction(5);
  EXPECT_THROW(pm.access(f), std::logic_error);
  // Single-page access of an oversized function is still fine.
  EXPECT_NO_THROW(pm.accessPage(f, 0));
  EXPECT_THROW(pm.accessPage(f, 7), std::out_of_range);
}

// --------------------------------------------------------- SegmentManager

TEST(SegmentManager, RejectsSerialFullOnlyPort) {
  // A segment fault writes one strip; a serial-full port cannot, so the
  // manager refuses it up front rather than at the first fault.
  const DeviceProfile serial = mediumSerialProfile();
  Device dev = serial.makeDevice();
  ConfigPort port(dev, serial.port);
  Compiler compiler(dev);
  EXPECT_THROW(SegmentManager(dev, port, compiler), std::invalid_argument);
  EXPECT_EQ(port.stats().fullDownloads, 0u);

  const DeviceProfile partial = mediumPartialProfile();
  Device dev2 = partial.makeDevice();
  ConfigPort port2(dev2, partial.port);
  Compiler compiler2(dev2);
  EXPECT_NO_THROW(SegmentManager(dev2, port2, compiler2));
}

// ------------------------------------------------------------------ IoMux

TEST(IoMux, FramesAndTransferTime) {
  IoMuxSpec spec;
  spec.physicalPins = 8;
  spec.frameTime = nanos(100);
  spec.muxLatency = nanos(30);
  IoMux mux(spec);
  EXPECT_EQ(mux.framesFor(8), 1u);   // fits the package
  EXPECT_EQ(mux.framesFor(9), 2u);
  EXPECT_EQ(mux.framesFor(64), 8u);
  EXPECT_EQ(mux.transferTime(8), nanos(130));
  EXPECT_EQ(mux.transferTime(24), nanos(330));
}

TEST(IoMux, BandwidthDegradesWithVirtualization) {
  IoMuxSpec spec;
  spec.physicalPins = 16;
  IoMux mux(spec);
  const double native = mux.effectivePinBandwidth(16);
  const double doubled = mux.effectivePinBandwidth(32);
  const double x4 = mux.effectivePinBandwidth(64);
  EXPECT_GT(native, doubled);
  EXPECT_GT(doubled, x4);
  // Aggregate bandwidth saturates rather than growing linearly.
  EXPECT_LT(mux.aggregateBandwidth(64), 4.0 * mux.aggregateBandwidth(16));
}

TEST(IoMux, StatsAccumulate) {
  IoMux mux(IoMuxSpec{8, nanos(100), nanos(0), nanos(5)});
  mux.transfer(20);
  mux.transfer(4);
  mux.rebind(20);
  EXPECT_EQ(mux.transfers(), 2u);
  EXPECT_EQ(mux.framesMoved(), 4u);  // 3 + 1
  EXPECT_EQ(mux.signalsMoved(), 24u);
  EXPECT_EQ(mux.busyTime(), 4u * nanos(100) + 20u * nanos(5));
}

TEST(IoMux, RejectsZeroPins) {
  EXPECT_THROW(IoMux(IoMuxSpec{0}), std::invalid_argument);
}

}  // namespace
}  // namespace vfpga
