#ifndef SMR_UTIL_SCRATCH_POOL_H_
#define SMR_UTIL_SCRATCH_POOL_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace smr {

/// Reusable per-worker scratch for callbacks the engine runs concurrently,
/// such as reducers. A callback leases one T for its duration and hands it
/// back on return, so a job holds at most one T per concurrently running
/// worker, each reused by every callback that worker runs, and frees them
/// all with the pool. What a T holds between leases must not influence
/// results, since which lease a callback gets depends on scheduling.
template <typename T>
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          item_(std::move(other.item_)) {}
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->Release(std::move(item_));
    }

    T& operator*() const { return *item_; }
    T* operator->() const { return item_.get(); }

   private:
    friend class ScratchPool;
    Lease(ScratchPool* pool, std::unique_ptr<T> item)
        : pool_(pool), item_(std::move(item)) {}

    ScratchPool* pool_;
    std::unique_ptr<T> item_;
  };

  Lease Acquire() {
    std::unique_ptr<T> item;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        item = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (item == nullptr) item = std::make_unique<T>();
    return Lease(this, std::move(item));
  }

 private:
  void Release(std::unique_ptr<T> item) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(item));
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace smr

#endif  // SMR_UTIL_SCRATCH_POOL_H_
