// docs/PROTOCOL.md must not drift from the code: every opcode table row in
// the spec is checked, field for field, against the live descriptor
// registry (Service::registered_ops()) of every server, in both
// directions, and §8.1's file table against the files a FileBackend
// volume really holds.  CI runs this test as the docs job; on mismatch it
// prints the table block the spec should contain, so regenerating the
// doc is a copy-paste.  Every code name that README.md or PROTOCOL.md
// puts in backticks must also exist in the source tree.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
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

/// The tree a doc's code names must exist in.
struct Corpus {
  std::string raw;   // every file as written
  std::string code;  // C++ files with comments and string literals blanked
  std::vector<std::string> strings;            // C++ string literals
  std::vector<std::set<std::string>> tokens;   // identifiers, per file
  std::set<std::string> all_tokens;
  std::set<std::string> stems;  // file names up to their first dot
};

[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] std::set<std::string> identifiers(std::string_view text) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < text.size();) {
    if (!ident_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) {
      ++j;
    }
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      out.emplace(text.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

/// Splits C++ source into code (comments and literals blanked) and the
/// contents of its string literals.
void split_source(std::string_view text, std::string& code,
                  std::vector<std::string>& strings) {
  for (std::size_t i = 0; i < text.size();) {
    const std::string_view rest = text.substr(i);
    if (rest.starts_with("//")) {
      const std::size_t end = text.find('\n', i);
      i = end == std::string_view::npos ? text.size() : end;
    } else if (rest.starts_with("/*")) {
      const std::size_t end = text.find("*/", i + 2);
      i = end == std::string_view::npos ? text.size() : end + 2;
    } else if (rest.starts_with("R\"") && (i == 0 || !ident_char(text[i - 1]))) {
      const std::size_t open = text.find('(', i);
      std::string close = ")";
      close += text.substr(i + 2, open - i - 2);
      close += '"';
      const std::size_t end = text.find(close, open);
      if (open == std::string_view::npos || end == std::string_view::npos) {
        break;  // an unterminated raw string: nothing after it is code
      }
      strings.emplace_back(text.substr(open + 1, end - open - 1));
      i = end + close.size();
      code += ' ';
    } else if (text[i] == '"') {
      std::string literal;
      std::size_t j = i + 1;
      for (; j < text.size() && text[j] != '"'; ++j) {
        if (text[j] == '\\') {
          literal += text[j++];
        }
        literal += text[j];
      }
      strings.push_back(std::move(literal));
      i = j + 1;
      code += ' ';
    } else if (text[i] == '\'' && (i == 0 || !ident_char(text[i - 1]))) {
      std::size_t j = i + 1;  // a char literal; 1'000 is a digit separator
      while (j < text.size() && text[j] != '\'') {
        j += text[j] == '\\' ? 2 : 1;
      }
      i = j + 1;
      code += ' ';
    } else {
      code += text[i++];
    }
  }
}

[[nodiscard]] const Corpus& corpus() {
  static const Corpus loaded = [] {
    Corpus c;
    for (const char* dir : {"src", "tests", "bench", "cluster", "examples"}) {
      for (const auto& entry : std::filesystem::recursive_directory_iterator(
               std::filesystem::path(AMOEBA_REPO_ROOT) / dir)) {
        const std::string name = entry.path().filename().string();
        const std::string ext = entry.path().extension().string();
        const bool cpp = ext == ".cpp" || ext == ".hpp" || ext == ".h";
        if (!entry.is_regular_file() ||
            (!cpp && ext != ".py" && name != "CMakeLists.txt")) {
          continue;
        }
        std::ifstream in(entry.path());
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::string text = buffer.str();
        c.raw += text + "\n";
        c.stems.insert(name.substr(0, name.find('.')));
        std::string code = text;
        if (cpp) {
          code.clear();
          split_source(text, code, c.strings);
          c.code += code + "\n";
        }
        c.tokens.push_back(identifiers(code));
        c.all_tokens.insert(c.tokens.back().begin(), c.tokens.back().end());
      }
    }
    return c;
  }();
  return loaded;
}

/// True when some string literal holds `piece` with a word boundary at
/// each end; a piece inside a dotted name may also meet a dot there, as
/// when code builds "rpc.handler_us." + name.
[[nodiscard]] bool in_a_literal(std::string_view piece, bool first,
                                bool last) {
  if (piece == "*") {
    return true;
  }
  for (const std::string& literal : corpus().strings) {
    for (std::size_t at = literal.find(piece); at != std::string::npos;
         at = literal.find(piece, at + 1)) {
      const std::size_t end = at + piece.size();
      const bool before = at == 0 || (!first && literal[at - 1] == '.') ||
                          (first && !ident_char(literal[at - 1]));
      const bool after = end == literal.size() ||
                         (!last && literal[end] == '.') ||
                         (last && !ident_char(literal[end]));
      if (before && after) {
        return true;
      }
    }
  }
  return false;
}

[[nodiscard]] std::vector<std::string> split(std::string_view name,
                                             std::string_view sep) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  for (std::size_t at = name.find(sep); at != std::string_view::npos;
       at = name.find(sep, from)) {
    parts.emplace_back(name.substr(from, at - from));
    from = at + sep.size();
  }
  parts.emplace_back(name.substr(from));
  return parts;
}

/// A dotted name exists when it can be cut at dots into pieces that each
/// sit in a string literal: a metric or op name, whole or assembled.
[[nodiscard]] bool dotted_name_exists(std::string_view name) {
  const std::vector<std::string> parts = split(name, ".");
  std::vector<bool> reach(parts.size() + 1, false);
  reach[0] = true;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::string piece;
    for (std::size_t j = i; reach[i] && j < parts.size(); ++j) {
      if (j > i) {
        piece += '.';
      }
      piece += parts[j];
      if (in_a_literal(piece, i == 0, j + 1 == parts.size())) {
        reach[j + 1] = true;
      }
    }
  }
  return reach.back();
}

[[nodiscard]] bool code_name_exists(const std::string& name) {
  const Corpus& c = corpus();
  if (name.starts_with("--")) {
    return c.raw.find(name) != std::string::npos;  // a command-line flag
  }
  if (c.code.find(name) != std::string::npos) {
    return true;
  }
  if (name.find("::") != std::string::npos) {
    // Scope::member: one file uses both the scope and the member.
    const std::vector<std::string> parts = split(name, "::");
    const std::string& scope = parts[parts.size() - 2];
    const std::string member = split(parts.back(), ".").back();
    return std::any_of(c.tokens.begin(), c.tokens.end(), [&](const auto& t) {
      return t.contains(scope) && t.contains(member);
    });
  }
  if (name.find('.') != std::string::npos) {
    // Suite.Case names a test; anything else is a metric or op name.
    const std::vector<std::string> parts = split(name, ".");
    if (parts.size() == 2) {
      for (const char* macro : {"TEST(", "TEST_F(", "TEST_P("}) {
        if (c.raw.find(macro + parts[0] + ", " + parts[1] + ")") !=
            std::string::npos) {
          return true;
        }
      }
    }
    return dotted_name_exists(name);
  }
  return c.all_tokens.contains(name) || c.stems.contains(name) ||
         in_a_literal(name, true, true);
}

/// The code name a backticked span holds, or "" when it holds none: file
/// names, paths, CMake flags, wire-field notation (`kind:u8`), commands,
/// expressions and templates are not names.  A call's argument list and
/// template arguments are dropped.
[[nodiscard]] std::string code_name(std::string span) {
  span = span.substr(0, span.find('('));
  for (std::size_t open = span.rfind('<'); open != std::string::npos;
       open = span.rfind('<')) {
    const std::size_t close = span.find('>', open);
    if (close == std::string::npos) {
      return "";
    }
    span.erase(open, close - open + 1);
  }
  static const std::set<std::string> kNotation = {"uN"};
  static const std::set<std::string> kFileTypes = {
      "bin", "cmake", "cpp", "h", "hpp", "json", "log", "md", "py", "snap",
      "txt"};
  if (span.empty() || kNotation.contains(span) ||
      kFileTypes.contains(span.substr(span.rfind('.') + 1))) {
    return "";
  }
  // A command-line flag, or identifiers joined by :: or '.', where '*'
  // stands for any one.
  static const std::regex kName(
      R"(--[a-z0-9-]+|([A-Za-z_]\w*|\*)((::|\.)([A-Za-z_]\w*|\*))*)");
  return std::regex_match(span, kName) ? span : "";
}

/// The backticked spans of `path` outside fenced code blocks.
[[nodiscard]] std::vector<std::string> backticked(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> spans;
  bool fenced = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(' ') != std::string::npos &&
        line.substr(line.find_first_not_of(' ')).starts_with("```")) {
      fenced = !fenced;
      continue;
    }
    for (std::size_t open = line.find('`'); !fenced && open != std::string::npos;) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) {
        break;
      }
      spans.push_back(line.substr(open + 1, close - open - 1));
      open = line.find('`', close + 1);
    }
  }
  return spans;
}

TEST(DocsConsistency, EveryBacktickedCodeNameExists) {
  for (const std::string doc : {"README.md", "docs/PROTOCOL.md"}) {
    std::set<std::string> names;
    for (const std::string& span :
         backticked(std::string(AMOEBA_REPO_ROOT) + "/" + doc)) {
      if (const std::string name = code_name(span); !name.empty()) {
        names.insert(name);
      }
    }
    EXPECT_GT(names.size(), 100u) << doc << " lost its code names";
    for (const std::string& name : names) {
      EXPECT_TRUE(code_name_exists(name))
          << doc << " names `" << name
          << "`, which exists nowhere in src/, tests/, bench/, cluster/ or "
             "examples/";
    }
  }
}

}  // namespace
}  // namespace amoeba
