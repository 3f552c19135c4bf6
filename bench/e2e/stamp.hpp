// The stamp every result row carries, so a number can be traced to the
// commit, host and configuration that produced it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

namespace amoeba::bench {

struct Stamp {
  std::string sha = "unknown";  // git HEAD of the source tree
  bool dirty = false;           // tracked files differ from HEAD
  unsigned nproc = 0;
  std::string build_type;
  std::string backend;  // the journal backend the nodes run on
  std::string mode;     // "full", "trace" or "smoke"
  std::uint64_t seed = 0;
};

namespace detail {

/// First line of `command`'s output, or "" when it fails.
[[nodiscard]] inline std::string first_line(const std::string& command) {
  std::string out;
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

}  // namespace detail

/// Stamps a row.  Git is asked about `source_dir` only: the ceiling keeps
/// it from searching the directories above a checkout that has no .git.
[[nodiscard]] inline Stamp make_stamp(const std::filesystem::path& source_dir,
                                      std::string build_type,
                                      std::string backend, std::string mode,
                                      std::uint64_t seed) {
  Stamp stamp;
  const std::string git = "GIT_CEILING_DIRECTORIES='" +
                          source_dir.parent_path().string() +
                          "' GIT_OPTIONAL_LOCKS=0 git -C '" +
                          source_dir.string() + "' ";
  if (const std::string sha = detail::first_line(
          git + "rev-parse --verify -q HEAD 2>/dev/null");
      sha.size() == 40) {
    stamp.sha = sha;
    stamp.dirty = !detail::first_line(git +
                                      "status --porcelain "
                                      "--untracked-files=no 2>/dev/null")
                       .empty();
  }
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.build_type = std::move(build_type);
  stamp.backend = std::move(backend);
  stamp.mode = std::move(mode);
  stamp.seed = seed;
  return stamp;
}

[[nodiscard]] inline std::string to_json(const Stamp& stamp) {
  return "{\"sha\": \"" + stamp.sha +
         "\", \"dirty\": " + (stamp.dirty ? "true" : "false") +
         ", \"nproc\": " + std::to_string(stamp.nproc) +
         ", \"build_type\": \"" + stamp.build_type + "\", \"backend\": \"" +
         stamp.backend + "\", \"mode\": \"" + stamp.mode +
         "\", \"seed\": " + std::to_string(stamp.seed) + "}";
}

}  // namespace amoeba::bench
