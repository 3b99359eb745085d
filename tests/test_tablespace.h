#pragma once

// A private BufferPool + TableSpace for tests that build HeapTable or
// ClusteredTable directly: every table keeps its sealed pages in a
// TableFile, exactly as Database::CreateTable wires them. Declare the
// TestTableSpace before the tables built on it — a TableFile unregisters
// from the pool when it is destroyed.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/tablespace.h"
#include "storage/vfs.h"

namespace htg::testutil {

class TestTableSpace {
 public:
  // `root` is the spill directory (swept on open); `pool_bytes` caps the
  // cached page images — set it below a table's bytes to force eviction.
  explicit TestTableSpace(const std::string& root,
                          size_t pool_bytes = size_t{64} << 20)
      : pool_(storage::BufferPoolOptions{.capacity_bytes = pool_bytes}) {
    auto space =
        storage::TableSpace::Open(storage::Vfs::Default(), root, &pool_);
    EXPECT_TRUE(space.ok()) << space.status().ToString();
    if (space.ok()) space_ = std::move(*space);
  }

  storage::BufferPool* pool() { return &pool_; }

  std::unique_ptr<storage::TableFile> NewFile(const std::string& name) {
    auto file = space_->CreateTableFile(name);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }

 private:
  storage::BufferPool pool_;
  std::unique_ptr<storage::TableSpace> space_;
};

}  // namespace htg::testutil
