// Invariant checkers shared by the replication and failover suites.
//
// Backup is a prefix of its primary: frames ship as written and a backup
// appends them verbatim (docs/PROTOCOL.md §9.2), so at any quiet moment
// the backup's commit.log is a byte prefix of its primary's -- the whole
// of it once every shipment is acknowledged.  A byte comparison covers
// every stream, every image and every floor at once: a torn frame, a
// frame applied twice or out of order, or a lost checkpoint shows up as
// differing bytes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "amoeba/storage/backend.hpp"

namespace amoeba::test {

/// Expects `backup`'s commit.log to be a byte prefix of `primary`'s; with
/// `whole`, to be all of it (a quiesced pair).
inline void expect_backup_is_prefix(const storage::Backend& primary,
                                    const storage::Backend& backup,
                                    bool whole = true) {
  const Buffer mine = primary.read_log();
  const Buffer theirs = backup.read_log();
  if (whole) {
    EXPECT_EQ(theirs.size(), mine.size())
        << "the backup's commit.log is not its primary's whole log";
  }
  ASSERT_LE(theirs.size(), mine.size())
      << "the backup's commit.log is longer than its primary's";
  const auto diverge = std::mismatch(theirs.begin(), theirs.end(),
                                     mine.begin());
  EXPECT_TRUE(diverge.first == theirs.end())
      << "the backup's commit.log differs from its primary's at byte "
      << (diverge.first - theirs.begin());
}

}  // namespace amoeba::test
