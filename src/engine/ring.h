// Bounded lock-free ring (Vyukov's MPMC queue) used for the engine's
// rx queues (SPSC: classifier producer, one worker consumer) and for the
// kPass handoff ring (MPSC: every worker produces, the slow-path thread
// consumes).
//
// Each cell carries a sequence number; a producer claims a cell by CAS on
// the enqueue cursor and publishes it by storing seq = pos + 1 with release
// ordering, which is what makes the element contents visible to the consumer
// that observes the sequence (acquire). No locks, no unbounded allocation —
// this is what keeps the datapath TSan-clean without serializing queues.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace linuxfp::engine {

template <typename T>
class BoundedRing {
 public:
  // Capacity is rounded up to a power of two (cursor arithmetic masks).
  explicit BoundedRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // False when the ring is full (tail-drop point).
  bool try_push(T&& value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->seq.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // False when the ring is empty.
  bool try_pop(T& out) {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->seq.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  // Racy snapshot, never for datapath control flow. Its readers are the
  // queue stats (max_occupancy) and the watchdog's stuck test, which is
  // wall-clock by design.
  std::size_t occupancy() const {
    std::size_t e = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t d = dequeue_pos_.load(std::memory_order_relaxed);
    return e >= d ? e - d : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace linuxfp::engine
