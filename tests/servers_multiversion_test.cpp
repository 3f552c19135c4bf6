// Tests for the persistent page tree and the multiversion file server
// (§3.5): copy-on-write sharing, atomic commit, optimistic concurrency
// conflicts, and immutability of committed versions.
#include <gtest/gtest.h>

#include <memory>

#include "amoeba/common/rng.hpp"
#include "amoeba/servers/multiversion_server.hpp"
#include "amoeba/servers/page_tree.hpp"

namespace amoeba::servers {
namespace {

// --------------------------------------------------------------- PageStore

TEST(PageStoreTest, EmptyTreeReadsZeros) {
  PageStore store(32);
  const auto page = store.read(PageStore::kEmptyRoot, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value(), Buffer(32, 0));
}

TEST(PageStoreTest, WriteThenRead) {
  PageStore store(32);
  const auto root = store.write(PageStore::kEmptyRoot, 5, Buffer{1, 2, 3});
  ASSERT_TRUE(root.ok());
  const auto page = store.read(root.value(), 5);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value()[0], 1);
  EXPECT_EQ(page.value()[2], 3);
  EXPECT_EQ(page.value()[3], 0);  // zero padded
  // Other pages in the same snapshot still read zero.
  EXPECT_EQ(store.read(root.value(), 6).value(), Buffer(32, 0));
}

TEST(PageStoreTest, SnapshotsAreIndependent) {
  PageStore store(16);
  const auto v1 = store.write(PageStore::kEmptyRoot, 0, Buffer{'a'});
  ASSERT_TRUE(v1.ok());
  const auto v2 = store.write(v1.value(), 0, Buffer{'b'});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(store.read(v1.value(), 0).value()[0], 'a');
  EXPECT_EQ(store.read(v2.value(), 0).value()[0], 'b');
}

TEST(PageStoreTest, CowCopiesOnlyThePath) {
  PageStore store(16);
  // Build a snapshot with pages spread across subtrees.
  std::uint32_t root = PageStore::kEmptyRoot;
  for (std::uint32_t page = 0; page < 64; ++page) {
    const auto next = store.write(root, page * 16, Buffer{1});
    ASSERT_TRUE(next.ok());
    store.release(root);
    root = next.value();
  }
  const auto nodes_before = store.stats().nodes_copied;
  const auto update = store.write(root, 0, Buffer{2});
  ASSERT_TRUE(update.ok());
  // One write copies exactly kDepth nodes -- O(depth), not O(file size).
  EXPECT_EQ(store.stats().nodes_copied - nodes_before,
            static_cast<std::uint64_t>(PageStore::kDepth));
}

TEST(PageStoreTest, ReleaseFreesUnsharedSubtrees) {
  PageStore store(16);
  const auto v1 = store.write(PageStore::kEmptyRoot, 0, Buffer{'a'});
  ASSERT_TRUE(v1.ok());
  const auto v2 = store.write(v1.value(), 1, Buffer{'b'});
  ASSERT_TRUE(v2.ok());
  const auto live_with_both = store.stats().live_pages;
  EXPECT_EQ(live_with_both, 2u);  // 'a' page (shared) + 'b' page
  store.release(v1.value());
  // Page 'a' survives: v2 still references it through shared structure.
  EXPECT_EQ(store.read(v2.value(), 0).value()[0], 'a');
  store.release(v2.value());
  EXPECT_EQ(store.stats().live_pages, 0u);
  EXPECT_EQ(store.stats().live_nodes, 0u);
}

TEST(PageStoreTest, RetainKeepsSnapshotAlive) {
  PageStore store(16);
  const auto v1 = store.write(PageStore::kEmptyRoot, 0, Buffer{'a'});
  ASSERT_TRUE(v1.ok());
  store.retain(v1.value());
  store.release(v1.value());
  EXPECT_EQ(store.read(v1.value(), 0).value()[0], 'a');  // still alive
  store.release(v1.value());
  EXPECT_EQ(store.stats().live_pages, 0u);
}

TEST(PageStoreTest, BoundsChecked) {
  PageStore store(16);
  EXPECT_EQ(store.write(PageStore::kEmptyRoot, PageStore::kMaxPages,
                        Buffer{1})
                .error(),
            ErrorCode::invalid_argument);
  EXPECT_EQ(store.read(PageStore::kEmptyRoot, PageStore::kMaxPages).error(),
            ErrorCode::invalid_argument);
  EXPECT_EQ(store.write(PageStore::kEmptyRoot, 0, Buffer(17)).error(),
            ErrorCode::invalid_argument);
  EXPECT_THROW(PageStore(0), UsageError);
}

TEST(PageStoreTest, HighestPageNumberWorks) {
  PageStore store(16);
  const auto root =
      store.write(PageStore::kEmptyRoot, PageStore::kMaxPages - 1,
                  Buffer{0x7F});
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(store.read(root.value(), PageStore::kMaxPages - 1).value()[0],
            0x7F);
}

// ------------------------------------------------------ MultiVersionServer

class MultiVersionSuite : public ::testing::Test {
 protected:
  MultiVersionSuite()
      : machine_(net_.add_machine("mvserver")),
        client_machine_(net_.add_machine("client")),
        rng_(21) {
    server_ = std::make_unique<MultiVersionServer>(
        machine_, Port(0x3171),
        core::make_scheme(core::SchemeKind::commutative, rng_), 1,
        /*page_size=*/64);
    server_->start();
    transport_ = std::make_unique<rpc::Transport>(client_machine_, 2);
    client_ = std::make_unique<MultiVersionClient>(*transport_,
                                                   server_->put_port());
  }

  net::Network net_;
  net::Machine& machine_;
  net::Machine& client_machine_;
  Rng rng_;
  std::unique_ptr<MultiVersionServer> server_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<MultiVersionClient> client_;
};

TEST_F(MultiVersionSuite, CreateForkWriteCommitRead) {
  const auto file = client_->create_file();
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(client_->history(file.value()).value(), 1u);  // empty v0

  const auto draft = client_->new_version(file.value());
  ASSERT_TRUE(draft.ok());
  ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{'v', '1'}).ok());
  const auto committed = client_->commit(draft.value());
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 1u);
  EXPECT_EQ(client_->history(file.value()).value(), 2u);
  EXPECT_EQ(client_->read_page(file.value(), 0).value()[0], 'v');
}

TEST_F(MultiVersionSuite, OldVersionsRemainReadable) {
  const auto file = client_->create_file();
  for (int v = 1; v <= 3; ++v) {
    const auto draft = client_->new_version(file.value());
    ASSERT_TRUE(draft.ok());
    ASSERT_TRUE(client_
                    ->write_page(draft.value(), 0,
                                 Buffer{static_cast<std::uint8_t>('0' + v)})
                    .ok());
    ASSERT_TRUE(client_->commit(draft.value()).ok());
  }
  // "A file is thus a sequence of versions."
  EXPECT_EQ(client_->read_page(file.value(), 0, 0).value()[0], 0);    // v0
  EXPECT_EQ(client_->read_page(file.value(), 0, 1).value()[0], '1');
  EXPECT_EQ(client_->read_page(file.value(), 0, 2).value()[0], '2');
  EXPECT_EQ(client_->read_page(file.value(), 0, 3).value()[0], '3');
  EXPECT_EQ(client_->read_page(file.value(), 0).value()[0], '3');     // head
  EXPECT_EQ(client_->read_page(file.value(), 0, 9).error(),
            ErrorCode::not_found);
}

TEST_F(MultiVersionSuite, DraftSeesBaseContentUntilOverwritten) {
  const auto file = client_->create_file();
  auto draft = client_->new_version(file.value());
  ASSERT_TRUE(client_->write_page(draft.value(), 3, Buffer{'x'}).ok());
  ASSERT_TRUE(client_->commit(draft.value()).ok());

  draft = client_->new_version(file.value());
  // "The new version acts like it is a page-by-page copy of the original."
  EXPECT_EQ(client_->read_page(draft.value(), 3).value()[0], 'x');
  ASSERT_TRUE(client_->write_page(draft.value(), 3, Buffer{'y'}).ok());
  EXPECT_EQ(client_->read_page(draft.value(), 3).value()[0], 'y');
  // The committed head is untouched until commit.
  EXPECT_EQ(client_->read_page(file.value(), 3).value()[0], 'x');
}

TEST_F(MultiVersionSuite, CommittedVersionsAreImmutable) {
  const auto file = client_->create_file();
  EXPECT_EQ(client_->write_page(file.value(), 0, Buffer{'x'}).error(),
            ErrorCode::immutable);
}

TEST_F(MultiVersionSuite, OptimisticConcurrencyConflict) {
  const auto file = client_->create_file();
  const auto draft_a = client_->new_version(file.value());
  const auto draft_b = client_->new_version(file.value());
  ASSERT_TRUE(client_->write_page(draft_a.value(), 0, Buffer{'a'}).ok());
  ASSERT_TRUE(client_->write_page(draft_b.value(), 0, Buffer{'b'}).ok());
  ASSERT_TRUE(client_->commit(draft_a.value()).ok());
  // The slower committer loses.
  EXPECT_EQ(client_->commit(draft_b.value()).error(), ErrorCode::conflict);
  EXPECT_EQ(client_->read_page(file.value(), 0).value()[0], 'a');
  // The losing draft can still be aborted cleanly.
  EXPECT_TRUE(client_->abort(draft_b.value()).ok());
}

TEST_F(MultiVersionSuite, AbortDiscardsDraft) {
  const auto file = client_->create_file();
  const auto draft = client_->new_version(file.value());
  ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{'z'}).ok());
  ASSERT_TRUE(client_->abort(draft.value()).ok());
  EXPECT_EQ(client_->history(file.value()).value(), 1u);
  // The draft object is gone; its capability is dead (dead slot or, after
  // reuse, a check-field mismatch).
  const auto dead = client_->read_page(draft.value(), 0);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.error() == ErrorCode::no_such_object ||
              dead.error() == ErrorCode::bad_capability);
}

TEST_F(MultiVersionSuite, CommitAfterFileDestroyedFails) {
  const auto file = client_->create_file();
  const auto draft = client_->new_version(file.value());
  ASSERT_TRUE(client_->destroy(file.value()).ok());
  EXPECT_EQ(client_->commit(draft.value()).error(), ErrorCode::no_such_object);
}

TEST_F(MultiVersionSuite, StaleDraftCannotCommitIntoReusedFileSlot) {
  // Destroying a file returns its object number to the free list; a new
  // file can reuse it.  A draft forked from the dead file must not be
  // able to inject its pages into the unrelated new file: commit
  // revalidates the stored file capability, which the reused slot's
  // fresh secret rejects.
  const auto doomed = client_->create_file();
  const auto draft = client_->new_version(doomed.value());
  ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{'!'}).ok());
  ASSERT_TRUE(client_->destroy(doomed.value()).ok());
  const auto reused = client_->create_file();
  ASSERT_EQ(reused.value().object, doomed.value().object);  // number reused
  EXPECT_EQ(client_->commit(draft.value()).error(),
            ErrorCode::no_such_object);
  EXPECT_EQ(client_->history(reused.value()).value(), 1u);  // untouched
}

TEST_F(MultiVersionSuite, CommitNeedsTheDestroyRight) {
  // Committing consumes the draft object, so a draft capability narrowed
  // below kDestroy cannot commit -- otherwise the published root and the
  // surviving draft would each own the same page-tree reference.
  const auto file = client_->create_file();
  const auto draft = client_->new_version(file.value());
  ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{'x'}).ok());
  const auto weak =
      rpc::std_restrict(*transport_, draft.value(),
                        core::rights::kRead.with(core::rights::kWriteBit));
  ASSERT_TRUE(weak.ok());
  EXPECT_EQ(client_->commit(weak.value()).error(),
            ErrorCode::permission_denied);
  EXPECT_EQ(client_->history(file.value()).value(), 1u);  // nothing published
  // The full-rights capability still commits and aborting afterwards is a
  // clean error (the draft was consumed exactly once).
  EXPECT_TRUE(client_->commit(draft.value()).ok());
  EXPECT_EQ(client_->history(file.value()).value(), 2u);
}

TEST_F(MultiVersionSuite, PageSharingAcrossVersions) {
  const auto file = client_->create_file();
  // Commit v1 with 8 pages.
  auto draft = client_->new_version(file.value());
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(client_->write_page(draft.value(), p, Buffer{1}).ok());
  }
  ASSERT_TRUE(client_->commit(draft.value()).ok());
  const auto pages_after_v1 = server_->page_stats().live_pages;
  // v2 changes one page: exactly one new page, everything else shared.
  draft = client_->new_version(file.value());
  ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{2}).ok());
  ASSERT_TRUE(client_->commit(draft.value()).ok());
  EXPECT_EQ(server_->page_stats().live_pages, pages_after_v1 + 1);
}

TEST_F(MultiVersionSuite, DestroyReleasesAllVersions) {
  const auto file = client_->create_file();
  for (int v = 0; v < 3; ++v) {
    const auto draft = client_->new_version(file.value());
    ASSERT_TRUE(client_->write_page(draft.value(), 0, Buffer{1}).ok());
    ASSERT_TRUE(client_->commit(draft.value()).ok());
  }
  ASSERT_TRUE(client_->destroy(file.value()).ok());
  EXPECT_EQ(server_->page_stats().live_pages, 0u);
  EXPECT_EQ(server_->page_stats().live_nodes, 0u);
}

TEST_F(MultiVersionSuite, ReadOnlyCapabilityCannotForkOrCommit) {
  const auto file = client_->create_file();
  rpc::Transport& t = *transport_;
  const auto read_only =
      rpc::std_restrict(t, file.value(), core::rights::kRead);
  ASSERT_TRUE(read_only.ok());
  EXPECT_TRUE(client_->read_page(read_only.value(), 0).ok());
  EXPECT_TRUE(client_->history(read_only.value()).ok());
  EXPECT_EQ(client_->new_version(read_only.value()).error(),
            ErrorCode::permission_denied);
}

}  // namespace
}  // namespace amoeba::servers
