// docs/PROTOCOL.md must not drift from the code: every opcode table row in
// the spec is checked, field for field, against the live descriptor
// registry (Service::registered_ops()) of every server, in both
// directions, and §8.1's file table against the files a FileBackend
// volume really holds.  CI runs this test as the docs job; on mismatch it
// prints the table block the spec should contain, so regenerating the
// doc is a copy-paste.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/kernel/memory_server.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/multiversion_server.hpp"
#include "amoeba/softprot/handshake.hpp"
#include "amoeba/softprot/keystore.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "volumes.hpp"

namespace amoeba {
namespace {

constexpr const char* kProtocolPath = AMOEBA_REPO_ROOT "/docs/PROTOCOL.md";

/// One parsed (or generated) opcode-table row, in the doc's column format:
/// | opcode | name | required rights | data rights | kind |
struct Row {
  std::uint16_t opcode = 0;
  std::string name;
  std::uint8_t required = 0;
  std::uint8_t data_rights = 0;
  bool object = true;

  [[nodiscard]] std::string render() const {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "| 0x%04X | `%s` | 0x%02X | 0x%02X | %s |", opcode,
                  name.c_str(), required, data_rights,
                  object ? "object" : "factory");
    return buffer;
  }

  friend bool operator==(const Row&, const Row&) = default;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t`");
  const auto end = s.find_last_not_of(" \t`");
  return begin == std::string::npos ? "" : s.substr(begin, end - begin + 1);
}

/// Extracts every table row of the form `| 0x.. | name | 0x.. | 0x.. |
/// kind |` from the spec; anything else (prose, header rows, the frame
/// layout tables whose first column is not an 0x opcode) is skipped.
std::vector<Row> parse_spec(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| 0x", 0) != 0) {
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    (void)std::getline(ss, cell, '|');  // leading empty cell
    while (std::getline(ss, cell, '|')) {
      cells.push_back(trim(cell));
    }
    if (!cells.empty() && cells.back().empty()) {
      cells.pop_back();
    }
    if (cells.size() != 5 || (cells[4] != "object" && cells[4] != "factory")) {
      continue;  // an 0x-leading row of some other table shape
    }
    Row row;
    row.opcode =
        static_cast<std::uint16_t>(std::stoul(cells[0], nullptr, 16));
    row.name = cells[1];
    row.required =
        static_cast<std::uint8_t>(std::stoul(cells[2], nullptr, 16));
    row.data_rights =
        static_cast<std::uint8_t>(std::stoul(cells[3], nullptr, 16));
    row.object = cells[4] == "object";
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Stands every server up (constructors register the descriptors; no
/// workers needed) and unions their registries by opcode, demanding that
/// shared opcodes -- the std_* suite -- carry identical metadata
/// everywhere.
std::map<std::uint16_t, Row> live_registry() {
  net::Network net;
  net::Machine& m = net.add_machine("registry");
  Rng rng(7);
  const auto scheme = core::make_scheme(core::SchemeKind::commutative, rng);

  servers::BankServer bank(m, Port(0x0101), scheme, 1);
  servers::BlockServer block(m, Port(0x0102), scheme, 2, {});
  servers::DirectoryServer directory(m, Port(0x0103), scheme, 3);
  servers::FlatFileServer flatfile(m, Port(0x0104), scheme, 4, Port(0x0102));
  servers::MultiVersionServer multiversion(m, Port(0x0105), scheme, 5);
  kernel::MemoryServer memory(m, Port(0x0106), scheme, 6);
  softprot::BootService boot(m, Port(0x0107),
                             std::make_shared<softprot::KeyStore>(), 7);
  rpc::ReplicaServer replica(m, Port(0x0108), scheme, 8,
                             std::make_shared<storage::MemoryBackend>(16));
  const rpc::Service* services[] = {&bank,         &block,  &directory,
                                    &flatfile,     &multiversion, &memory,
                                    &boot,         &replica};

  std::map<std::uint16_t, Row> registry;
  for (const rpc::Service* service : services) {
    for (const rpc::OpInfo& op : service->registered_ops()) {
      const Row row{op.opcode, op.name, op.required.bits(),
                    op.data_rights.bits(), op.object};
      const auto [it, inserted] = registry.emplace(op.opcode, row);
      EXPECT_EQ(it->second, row)
          << "opcode 0x" << std::hex << op.opcode
          << " registered with conflicting metadata across servers";
    }
  }
  return registry;
}

TEST(DocsConsistency, ProtocolOpcodeTablesMatchRegisteredOps) {
  const auto registry = live_registry();
  ASSERT_FALSE(registry.empty());
  const auto spec_rows = parse_spec(kProtocolPath);

  std::map<std::uint16_t, Row> spec;
  for (const Row& row : spec_rows) {
    EXPECT_TRUE(spec.emplace(row.opcode, row).second)
        << "duplicate opcode row in PROTOCOL.md: " << row.render();
  }

  // What the spec's tables, concatenated and sorted by opcode, must be.
  std::string expected;
  for (const auto& [opcode, row] : registry) {
    expected += row.render() + "\n";
  }

  for (const auto& [opcode, row] : registry) {
    const auto it = spec.find(opcode);
    if (it == spec.end()) {
      ADD_FAILURE() << "PROTOCOL.md is missing a row for " << row.render()
                    << "\nfull expected table:\n"
                    << expected;
      continue;
    }
    EXPECT_EQ(it->second, row)
        << "PROTOCOL.md row drifted.\n  doc:  " << it->second.render()
        << "\n  code: " << row.render();
  }
  for (const auto& [opcode, row] : spec) {
    EXPECT_TRUE(registry.contains(opcode))
        << "PROTOCOL.md documents an opcode no server registers: "
        << row.render();
  }
}

TEST(DocsConsistency, ProtocolCoversTheAtMostOnceMachinery) {
  // The spec sections the README links to must exist (cheap guard against
  // renaming a heading without updating the cross-references).
  std::ifstream in(kProtocolPath);
  ASSERT_TRUE(in.good()) << "cannot open " << kProtocolPath;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  for (const char* needle :
       {"kFlagBatch", "kFlagAtMostOnce", "kFlagRetransmit", "client", "seq",
        "## 5", "reply cache", "0xFFFF"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "PROTOCOL.md lost required content: " << needle;
  }
}

/// The first column of every table row inside PROTOCOL.md §8.1: the file
/// names of a FileBackend volume, with `N` and `KEY` placeholders.
std::vector<std::string> volume_layout_files() {
  std::ifstream in(kProtocolPath);
  EXPECT_TRUE(in.good()) << "cannot open " << kProtocolPath;
  std::vector<std::string> files;
  bool inside = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("### ")) {
      inside = line.starts_with("### 8.1 ");
      continue;
    }
    if (!inside || !line.starts_with("| `")) {
      continue;
    }
    files.push_back(trim(line.substr(1, line.find('|', 1) - 1)));
  }
  return files;
}

/// True when `name` matches a §8.1 file name, in which `N` stands for a
/// number.
bool matches_file_pattern(std::string_view name, std::string_view pattern) {
  if (pattern.empty()) {
    return name.empty();
  }
  if (pattern.front() == 'N') {
    for (std::size_t n = 0;
         n < name.size() && std::isdigit(static_cast<unsigned char>(name[n]));
         ++n) {
      if (matches_file_pattern(name.substr(n + 1), pattern.substr(1))) {
        return true;
      }
    }
    return false;
  }
  return !name.empty() && name.front() == pattern.front() &&
         matches_file_pattern(name.substr(1), pattern.substr(1));
}

TEST(DocsConsistency, VolumeLayoutTableMatchesAFileVolume) {
  const auto documented = volume_layout_files();
  ASSERT_FALSE(documented.empty()) << "PROTOCOL.md §8.1 lost its file table";
  const auto dir = std::filesystem::temp_directory_path() /
                   ("amoeba-docs-volume-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    // Every kind of write a volume takes: one group append, a snapshot on
    // an object shard and on the reply stream.
    auto volume = std::make_shared<storage::FileBackend>(dir, 4);
    Buffer record;
    storage::encode_record_into(storage::RecordType::mutate, ObjectNumber(1),
                                0, 1, Buffer{1}, record);
    std::vector<storage::ShardAppend> group;
    group.push_back({1, record});
    group.push_back({volume->reply_stream(), record});
    test::append_group(*volume, std::move(group));
    storage::GroupCommitter committer(volume);
    committer.install_snapshot(2, storage::encode_snapshot({}, 1));
    committer.install_snapshot(volume->reply_stream(),
                               storage::encode_snapshot({}, 1));
    committer.wait_durable(committer.issued());
  }
  std::set<std::string> unmatched(documented.begin(), documented.end());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    bool matched = false;
    for (const std::string& file : documented) {
      if (matches_file_pattern(name, file)) {
        matched = true;
        unmatched.erase(file);
      }
    }
    EXPECT_TRUE(matched) << "a file volume holds " << name
                         << ", which PROTOCOL.md §8.1 does not list";
  }
  for (const std::string& file : unmatched) {
    ADD_FAILURE() << "PROTOCOL.md §8.1 lists " << file
                  << ", which the file volume does not hold";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amoeba
