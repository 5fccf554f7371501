#include "window/amend_window_store.h"

#include "common/logging.h"

namespace streamq {

namespace {

/// Leaf fanout. Small enough that intra-leaf inserts (a memmove of a few
/// pointers) stay cheap, large enough that the root index is tiny: 32
/// buckets/leaf covers a million live window starts with a ~32k-entry
/// root — two cache-friendly binary searches end to end.
constexpr size_t kLeafCapacity = 32;

constexpr size_t kInitialProbeCapacity = 4;

}  // namespace

std::unique_ptr<AmendWindowStore::Bucket> AmendWindowStore::MakeBucket(
    TimestampUs start) {
  auto b = std::make_unique<Bucket>();
  b->start_ = start;
  b->probe_.assign(kInitialProbeCapacity, 0);
  return b;
}

std::vector<std::unique_ptr<AmendWindowStore::Bucket>>::iterator
AmendWindowStore::LowerBound(Leaf& leaf, TimestampUs start) {
  return std::lower_bound(
      leaf.buckets.begin(), leaf.buckets.end(), start,
      [](const std::unique_ptr<Bucket>& b, TimestampUs s) {
        // A bucket purged by the running Scan is null until its leaf is
        // compacted. Purged buckets all precede the visited one, and
        // lookups during a scan ask for it or a later start, so a null
        // sorts first.
        return b == nullptr || b->start() < s;
      });
}

AmendWindowStore::AmendWindowStore(DurationUs slide) : slide_(slide) {
  STREAMQ_CHECK_GT(slide, 0);
}

size_t AmendWindowStore::FindLeafIndex(TimestampUs start) const {
  // Last leaf with min start <= `start`. upper_bound returns the first
  // leaf strictly past `start`; step back one (clamped at the front).
  auto it = std::upper_bound(leaf_min_.begin(), leaf_min_.end(), start);
  if (it == leaf_min_.begin()) return 0;
  return static_cast<size_t>(it - leaf_min_.begin()) - 1;
}

void AmendWindowStore::SplitLeaf(size_t li) {
  Leaf& left = *leaves_[li];
  auto right = std::make_unique<Leaf>();
  const size_t half = left.buckets.size() / 2;
  right->buckets.assign(std::make_move_iterator(left.buckets.begin() + half),
                        std::make_move_iterator(left.buckets.end()));
  left.buckets.resize(half);
  const TimestampUs right_min = right->buckets.front()->start();
  leaves_.insert(leaves_.begin() + li + 1, std::move(right));
  leaf_min_.insert(leaf_min_.begin() + li + 1, right_min);
  if (finger_leaf_ > li) ++finger_leaf_;
}

void AmendWindowStore::CompactLeaves() {
  size_t out = 0;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    if (leaves_[i]->buckets.empty()) continue;
    if (out != i) leaves_[out] = std::move(leaves_[i]);
    ++out;
  }
  leaves_.resize(out);
  leaf_min_.resize(out);
  for (size_t i = 0; i < out; ++i) {
    leaf_min_[i] = leaves_[i]->buckets.front()->start();
  }
  finger_leaf_ = 0;
}

AmendWindowStore::Bucket* AmendWindowStore::GetOrCreateBucket(
    TimestampUs start) {
  if (bucket_count_ == 0) {
    if (leaves_.empty()) {
      leaves_.push_back(std::make_unique<Leaf>());
      leaf_min_.push_back(start);
    }
    Leaf& leaf = *leaves_.front();
    leaf.buckets.push_back(MakeBucket(start));
    leaf_min_.front() = start;
    finger_leaf_ = 0;
    ++bucket_count_;
    return leaf.buckets.back().get();
  }

  // Back finger: frontier appends (start past everything stored) go
  // straight to the last leaf — the common case even under disorder.
  Leaf* back = leaves_.back().get();
  if (start > back->buckets.back()->start()) {
    if (back->buckets.size() >= kLeafCapacity) {
      SplitLeaf(leaves_.size() - 1);
      back = leaves_.back().get();
    }
    back->buckets.push_back(MakeBucket(start));
    ++bucket_count_;
    return back->buckets.back().get();
  }

  // Out-of-order access. Amend finger first: stragglers cluster, so the
  // last amended leaf usually covers this one too.
  size_t li = finger_leaf_;
  const bool finger_hits =
      li < leaves_.size() && leaf_min_[li] <= start &&
      (li + 1 == leaves_.size() || start < leaf_min_[li + 1]);
  if (!finger_hits) li = FindLeafIndex(start);
  finger_leaf_ = li;

  Leaf* leaf = leaves_[li].get();
  auto pos = LowerBound(*leaf, start);
  if (pos != leaf->buckets.end() && (*pos)->start() == start) {
    return pos->get();
  }
  if (leaf->buckets.size() >= kLeafCapacity) {
    SplitLeaf(li);
    if (start >= leaf_min_[li + 1]) {
      ++li;
      finger_leaf_ = li;
    }
    leaf = leaves_[li].get();
    pos = LowerBound(*leaf, start);
  }
  pos = leaf->buckets.insert(pos, MakeBucket(start));
  if (pos == leaf->buckets.begin()) leaf_min_[li] = start;
  ++bucket_count_;
  return pos->get();
}

AmendWindowStore::Slot* AmendWindowStore::GetOrCreate(TimestampUs start,
                                                      int64_t key,
                                                      bool* created) {
  Bucket* b = GetOrCreateBucket(start);
  Slot* s = b->Find(key);
  if (s != nullptr) {
    *created = false;
    return s;
  }
  s = b->Insert(key);
  ++slot_count_;
  ++epoch_;  // Insertion may have reallocated the bucket's slot array.
  *created = true;
  return s;
}

AmendWindowStore::Slot* AmendWindowStore::Find(TimestampUs start,
                                               int64_t key) {
  if (bucket_count_ == 0) return nullptr;
  const size_t li = FindLeafIndex(start);
  Leaf& leaf = *leaves_[li];
  auto pos = LowerBound(leaf, start);
  if (pos == leaf.buckets.end() || (*pos)->start() != start) return nullptr;
  return (*pos)->Find(key);
}

}  // namespace streamq
