#include "core/strip_allocator.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/kernel_check.hpp"

namespace vfpga {

namespace {
/// Gated invariant hook, called after every mutation.
void maybeCheck(const StripAllocator& a) {
  if (analysis::invariantChecksEnabled()) a.checkInvariants();
}
}  // namespace

void StripAllocator::checkInvariants() const {
  analysis::Report rep;
  analysis::verifyStrips(strips_, columns_, fixed_, rep);
  analysis::throwIfErrors(rep, "StripAllocator");
}

StripAllocator::StripAllocator(std::uint16_t columns)
    : columns_(columns), fixed_(false) {
  if (columns == 0) throw std::invalid_argument("zero-column allocator");
  strips_.push_back(Strip{next_++, 0, columns, false});
  maybeCheck(*this);
}

StripAllocator::StripAllocator(std::uint16_t columns,
                               const std::vector<std::uint16_t>& fixedWidths)
    : columns_(columns), fixed_(true) {
  if (columns == 0) throw std::invalid_argument("zero-column allocator");
  std::uint16_t x = 0;
  for (std::uint16_t w : fixedWidths) {
    if (w == 0) throw std::invalid_argument("zero-width fixed partition");
    if (x + w > columns) {
      throw std::invalid_argument("fixed partitions exceed device columns");
    }
    strips_.push_back(Strip{next_++, x, w, false});
    x = static_cast<std::uint16_t>(x + w);
  }
  if (x < columns) {
    strips_.push_back(
        Strip{next_++, x, static_cast<std::uint16_t>(columns - x), false});
  }
  maybeCheck(*this);
}

std::size_t StripAllocator::indexOf(PartitionId id) const {
  for (std::size_t i = 0; i < strips_.size(); ++i) {
    if (strips_[i].id == id) return i;
  }
  throw std::out_of_range("unknown partition id");
}

std::optional<PartitionId> StripAllocator::allocate(std::uint16_t width,
                                                    FitPolicy fit) {
  if (width == 0) throw std::invalid_argument("zero-width allocation");
  std::size_t best = strips_.size();
  for (std::size_t i = 0; i < strips_.size(); ++i) {
    const Strip& s = strips_[i];
    if (s.busy || s.faulty || s.width < width) continue;
    if (fit == FitPolicy::kFirstFit) {
      best = i;
      break;
    }
    if (best == strips_.size() || s.width < strips_[best].width) best = i;
  }
  if (best == strips_.size()) return std::nullopt;

  if (fixed_) {
    strips_[best].busy = true;
    maybeCheck(*this);
    return strips_[best].id;
  }
  // Variable mode: split off exactly `width` columns from the left edge.
  Strip& s = strips_[best];
  if (s.width == width) {
    s.busy = true;
    maybeCheck(*this);
    return s.id;
  }
  Strip allocated{next_++, s.x0, width, true};
  s.x0 = static_cast<std::uint16_t>(s.x0 + width);
  s.width = static_cast<std::uint16_t>(s.width - width);
  strips_.insert(strips_.begin() + static_cast<std::ptrdiff_t>(best),
                 allocated);
  maybeCheck(*this);
  return allocated.id;
}

void StripAllocator::release(PartitionId id) {
  const std::size_t idx = indexOf(id);
  if (!strips_[idx].busy) throw std::logic_error("releasing an idle strip");
  strips_[idx].busy = false;
  if (!fixed_) mergeIdleAround(idx);
  maybeCheck(*this);
}

void StripAllocator::mergeIdleAround(std::size_t idx) {
  // Merge with right neighbour first (index stays valid), then left.
  // Faulty strips never merge: they pin the quarantine boundary.
  if (idx + 1 < strips_.size() && !strips_[idx + 1].busy &&
      !strips_[idx + 1].faulty) {
    strips_[idx].width =
        static_cast<std::uint16_t>(strips_[idx].width + strips_[idx + 1].width);
    strips_.erase(strips_.begin() + static_cast<std::ptrdiff_t>(idx) + 1);
  }
  if (idx > 0 && !strips_[idx - 1].busy && !strips_[idx - 1].faulty) {
    strips_[idx - 1].width =
        static_cast<std::uint16_t>(strips_[idx - 1].width + strips_[idx].width);
    strips_.erase(strips_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

const Strip& StripAllocator::strip(PartitionId id) const {
  return strips_[indexOf(id)];
}

std::uint16_t StripAllocator::totalFree() const {
  std::uint16_t n = 0;
  for (const Strip& s : strips_) {
    if (!s.busy && !s.faulty) n = static_cast<std::uint16_t>(n + s.width);
  }
  return n;
}

std::uint16_t StripAllocator::largestFree() const {
  std::uint16_t n = 0;
  for (const Strip& s : strips_) {
    if (!s.busy && !s.faulty) n = std::max(n, s.width);
  }
  return n;
}

const Strip& StripAllocator::stripAt(std::uint16_t column) const {
  for (const Strip& s : strips_) {
    if (column >= s.x0 && column < s.x0 + s.width) return s;
  }
  throw std::out_of_range("column beyond device");
}

void StripAllocator::quarantineColumn(std::uint16_t column) {
  const auto idx = static_cast<std::size_t>(&stripAt(column) - strips_.data());
  Strip& s = strips_[idx];
  if (s.faulty) return;  // already quarantined
  if (s.busy) {
    throw std::logic_error("quarantining a busy strip (relocate first)");
  }
  if (fixed_ || s.width == 1) {
    // Fixed partitions cannot be resized: the whole partition is lost.
    s.faulty = true;
    maybeCheck(*this);
    return;
  }
  // Variable mode: carve a 1-column faulty strip out of the idle strip,
  // keeping any remainder on each side allocatable.
  const Strip old = s;
  std::vector<Strip> parts;
  if (column > old.x0) {
    parts.push_back(Strip{old.id, old.x0,
                          static_cast<std::uint16_t>(column - old.x0), false,
                          false});
  }
  parts.push_back(Strip{next_++, column, 1, false, true});
  const std::uint16_t rightW =
      static_cast<std::uint16_t>(old.x0 + old.width - column - 1);
  if (rightW > 0) {
    parts.push_back(Strip{column > old.x0 ? next_++ : old.id,
                          static_cast<std::uint16_t>(column + 1), rightW,
                          false, false});
  }
  strips_.erase(strips_.begin() + static_cast<std::ptrdiff_t>(idx));
  strips_.insert(strips_.begin() + static_cast<std::ptrdiff_t>(idx),
                 parts.begin(), parts.end());
  maybeCheck(*this);
}

void StripAllocator::unquarantineColumn(std::uint16_t column) {
  const auto i = static_cast<std::size_t>(&stripAt(column) - strips_.data());
  if (!strips_[i].faulty) return;  // nothing to heal
  strips_[i].faulty = false;
  if (!fixed_) mergeIdleAround(i);
  maybeCheck(*this);
}

std::size_t StripAllocator::repairUnmergedIdle() {
  if (fixed_) throw std::logic_error("repairUnmergedIdle() on fixed partitions");
  std::size_t merges = 0;
  for (std::size_t i = 0; i + 1 < strips_.size();) {
    Strip& a = strips_[i];
    const Strip& b = strips_[i + 1];
    if (!a.busy && !a.faulty && !b.busy && !b.faulty) {
      a.width = static_cast<std::uint16_t>(a.width + b.width);
      strips_.erase(strips_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      ++merges;
      continue;  // `a` may now merge with the next strip too
    }
    ++i;
  }
  maybeCheck(*this);
  return merges;
}

std::uint16_t StripAllocator::quarantinedColumns() const {
  std::uint16_t n = 0;
  for (const Strip& s : strips_) {
    if (s.faulty) n = static_cast<std::uint16_t>(n + s.width);
  }
  return n;
}

std::uint16_t StripAllocator::largestUsableSpan() const {
  std::uint16_t best = 0, run = 0;
  for (const Strip& s : strips_) {
    if (s.faulty) {
      best = std::max(best, run);
      run = 0;
    } else {
      run = static_cast<std::uint16_t>(run + s.width);
    }
  }
  return std::max(best, run);
}

std::uint16_t StripAllocator::largestFreeAfterCompaction() const {
  std::uint16_t best = 0, idle = 0;
  for (const Strip& s : strips_) {
    if (s.faulty) {
      best = std::max(best, idle);
      idle = 0;
    } else if (!s.busy) {
      idle = static_cast<std::uint16_t>(idle + s.width);
    }
  }
  return std::max(best, idle);
}

bool StripAllocator::wouldFitAfterCompaction(std::uint16_t width) const {
  return largestFree() < width && largestFreeAfterCompaction() >= width;
}

double StripAllocator::externalFragmentation() const {
  const std::uint16_t total = totalFree();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(largestFree()) / total;
}

std::vector<StripAllocator::Move> StripAllocator::compact() {
  if (fixed_) throw std::logic_error("compact() on fixed partitions");
  // Busy strips pack left *within each segment between faulty pins*:
  // quarantined columns stay where they are and nothing crosses them.
  std::vector<Move> moves;
  std::vector<Strip> packed;
  std::uint16_t x = 0;
  for (const Strip& s : strips_) {
    if (s.faulty) {
      if (x < s.x0) {
        packed.push_back(Strip{
            next_++, x, static_cast<std::uint16_t>(s.x0 - x), false, false});
      }
      packed.push_back(s);
      x = static_cast<std::uint16_t>(s.x0 + s.width);
      continue;
    }
    if (!s.busy) continue;
    if (s.x0 != x) moves.push_back(Move{s.id, s.x0, x});
    packed.push_back(Strip{s.id, x, s.width, true, false});
    x = static_cast<std::uint16_t>(x + s.width);
  }
  if (x < columns_) {
    packed.push_back(Strip{
        next_++, x, static_cast<std::uint16_t>(columns_ - x), false, false});
  }
  strips_ = std::move(packed);
  maybeCheck(*this);
  return moves;
}

}  // namespace vfpga
