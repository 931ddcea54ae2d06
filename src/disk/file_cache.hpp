// Page cache with sequential readahead — the model of the Linux buffer
// cache that the paper's baseline runs against.
//
// The cache tracks page *presence and dirtiness* only; bytes live in each
// file's DataStore (see store.hpp). Misses cluster into contiguous disk
// transfers; a detected sequential stream extends misses by the readahead
// window, which is what makes the `sequential` benchmark run at streaming
// bandwidth and shows (as the paper observes) essentially no benefit from
// remote memory.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/units.hpp"
#include "disk/disk_model.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::disk {

using FileId = std::uint32_t;

struct FileCacheParams {
  Bytes64 capacity = 64 * 1024 * 1024;
  Bytes64 page_size = 4096;
  Bytes64 readahead = 128 * 1024;  // max readahead extent
  double copy_rate_Bps = 80e6;     // 1999-era memcpy for cache hits
};

struct FileCacheMetrics {
  std::uint64_t hit_pages = 0;
  std::uint64_t miss_pages = 0;
  std::uint64_t readahead_pages = 0;
  std::uint64_t evicted_pages = 0;
  std::uint64_t writeback_pages = 0;
};

class FileCache {
 public:
  FileCache(sim::Simulator& sim, DiskModel& disk, FileCacheParams params = {});

  /// Charges the time for reading [off, off+len) of `file` whose data lives
  /// at absolute disk position `base + off`. file_size clips readahead.
  sim::Co<void> read(FileId file, std::int64_t base, Bytes64 file_size,
                     Bytes64 off, Bytes64 len);

  /// Charges the time for writing [off, off+len): pages become resident and
  /// dirty; the disk is touched later (writeback on eviction or sync).
  sim::Co<void> write(FileId file, std::int64_t base, Bytes64 file_size,
                      Bytes64 off, Bytes64 len);

  /// Flushes all dirty pages of `file` to disk (fsync).
  sim::Co<void> sync(FileId file);

  /// Drops every page of `file` (used when a file is deleted).
  void invalidate(FileId file);

  [[nodiscard]] const FileCacheMetrics& metrics() const { return metrics_; }
  [[nodiscard]] Bytes64 resident_bytes() const {
    return static_cast<Bytes64>(lru_.size()) * params_.page_size;
  }

  /// Shrinks/grows capacity at runtime (the Dodo configuration donates app
  /// memory to the region cache, squeezing the page cache).
  void set_capacity(Bytes64 capacity) { params_.capacity = capacity; }

 private:
  struct PageKey {
    FileId file;
    std::int64_t page;
    bool operator==(const PageKey&) const = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.file) << 40) ^
          static_cast<std::uint64_t>(k.page));
    }
  };
  struct Page {
    PageKey key;
    std::int64_t disk_locus;  // absolute device offset of this page
    bool dirty = false;
  };
  using LruList = std::list<Page>;

  /// Makes `page` resident (no disk I/O; caller has already charged it).
  void insert(PageKey key, std::int64_t locus, bool dirty,
              std::vector<std::pair<std::int64_t, Bytes64>>& writebacks);

  sim::Simulator& sim_;
  DiskModel& disk_;
  FileCacheParams params_;
  FileCacheMetrics metrics_;
  LruList lru_;  // front = most recent
  std::unordered_map<PageKey, LruList::iterator, PageKeyHash> pages_;
  std::unordered_map<FileId, Bytes64> last_read_end_;  // stream detection
};

}  // namespace dodo::disk
