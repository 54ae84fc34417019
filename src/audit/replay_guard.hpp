// FIFO-bounded journals for at-least-once delivery guards.
//
// The chaos layer (net/chaos.hpp) can duplicate any message, so every
// handler that tears down session state, or whose reply must not change on
// a re-run, needs a way to recognise a replay without remembering every id
// forever. BoundedJournal is a keyed map that remembers the first value
// recorded per key: insert() records a first-seen key, find() answers "did
// we already serve this, and with what?", and once the capacity is exceeded
// the oldest keys age out in insertion order. ReplayGuard is its set case.
// The capacity only needs to exceed the number of sessions that can be in
// flight concurrently plus the chaos reorder horizon — 4096 is orders of
// magnitude above both for every workload in this repository.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <type_traits>
#include <utility>

namespace dla::audit {

// Value = void is the set case: keys only, no remembered value.
template <class Key, class Value = void>
class BoundedJournal {
 public:
  explicit BoundedJournal(std::size_t capacity = 4096) : capacity_(capacity) {}

  bool contains(const Key& key) const { return entries_.contains(key); }

  // The remembered value; nullptr when the key is absent (or aged out).
  Value* find(const Key& key) requires(!std::is_void_v<Value>) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Records a first-seen key, ageing out the oldest key past the capacity.
  // Returns false, changing nothing, when the key is already present.
  bool insert(const Key& key) requires std::is_void_v<Value> {
    return admit(entries_.insert(key).second, key);
  }
  template <class V>
  bool insert(const Key& key, V&& value) requires(!std::is_void_v<Value>) {
    return admit(entries_.try_emplace(key, std::forward<V>(value)).second,
                 key);
  }

  // Convenience: insert-or-reject in one call. Returns true when the key was
  // seen before (i.e. the caller should drop the message).
  bool check_and_mark(const Key& key) requires std::is_void_v<Value> {
    return !insert(key);
  }

  std::size_t size() const { return entries_.size(); }

 private:
  bool admit(bool inserted, const Key& key) {
    if (!inserted) return false;
    order_.push_back(key);
    if (order_.size() > capacity_) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  std::size_t capacity_;
  std::conditional_t<std::is_void_v<Value>, std::set<Key>, std::map<Key, Value>>
      entries_;
  std::deque<Key> order_;
};

using ReplayGuard = BoundedJournal<std::uint64_t>;

}  // namespace dla::audit
