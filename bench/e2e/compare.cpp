#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

namespace amoeba::bench {

namespace {

/// Just enough JSON for BENCHMARK.json and the benchmark's own rows.
struct Json {
  enum class Kind { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* get(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<Json> parse() {
    Json value = parse_value();
    skip_space();
    if (!ok_ || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string parse_string() {
    std::string out;
    if (!eat('"')) {
      ok_ = false;
      return out;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':  // non-ASCII never matters to a comparison key
            pos_ = std::min(text_.size(), pos_ + 4);
            c = '?';
            break;
          default: break;  // '"', '\\', '/'
        }
      }
      out.push_back(c);
    }
    ok_ = ok_ && eat('"');
    return out;
  }

  Json parse_value() {
    Json value;
    skip_space();
    if (!ok_ || pos_ >= text_.size()) {
      ok_ = false;
      return value;
    }
    const char c = text_[pos_];
    if (c == '{') {
      value.kind = Json::Kind::object;
      ++pos_;
      if (eat('}')) return value;
      do {
        std::string key = parse_string();
        if (!eat(':')) ok_ = false;
        Json member = parse_value();
        value.members.emplace_back(std::move(key), std::move(member));
      } while (ok_ && eat(','));
      ok_ = ok_ && eat('}');
    } else if (c == '[') {
      value.kind = Json::Kind::array;
      ++pos_;
      if (eat(']')) return value;
      do {
        value.items.push_back(parse_value());
      } while (ok_ && eat(','));
      ok_ = ok_ && eat(']');
    } else if (c == '"') {
      value.kind = Json::Kind::string;
      value.string = parse_string();
    } else if (eat_word("true") || eat_word("false")) {
      value.kind = Json::Kind::boolean;
      value.boolean = c == 't';
    } else if (eat_word("null")) {
      value.kind = Json::Kind::null;
    } else {
      const std::string rest(text_.substr(pos_, 64));
      char* end = nullptr;
      value.kind = Json::Kind::number;
      value.number = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) ok_ = false;
      pos_ += static_cast<std::size_t>(end - rest.c_str());
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// A metric BENCHMARK.json declares; per-layer metrics have no bound.
struct Declared {
  std::string name;
  bool higher_is_better = false;
  std::optional<double> bound;
};

[[nodiscard]] std::optional<std::vector<Declared>> read_declared(
    const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto json = Parser(text.str()).parse();
  if (!json.has_value()) return std::nullopt;
  std::vector<Declared> declared;
  for (const char* list : {"end_to_end", "per_layer"}) {
    const Json* metrics = json->get(list);
    if (metrics == nullptr) return std::nullopt;
    for (const Json& m : metrics->items) {
      const Json* name = m.get("name");
      const Json* better = m.get("better");
      if (name == nullptr || better == nullptr) return std::nullopt;
      const Json* bound = m.get("bound");
      declared.push_back(
          {name->string, better->string == "higher",
           bound != nullptr ? std::optional<double>(bound->number)
                            : std::nullopt});
    }
  }
  return declared;
}

/// One side of a comparison: the rows of one file whose checks passed.
struct Side {
  /// workload -> metric -> one value per run, in file order.
  std::map<std::string, std::map<std::string, std::vector<double>>> runs;
  /// workload -> ops that failed, summed over the side's runs.
  std::map<std::string, double> failed;
  /// "<workload> seed <n>" of every row left out because a check failed.
  std::vector<std::string> rejected;
};

[[nodiscard]] std::optional<Side> read_side(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Side side;
  for (std::string line; std::getline(in, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto row = Parser(line).parse();
    if (!row.has_value()) return std::nullopt;
    const Json* workload = row->get("workload");
    const Json* correct = row->get("correct");
    const Json* failed = row->get("failed");
    const Json* metrics = row->get("metrics");
    if (workload == nullptr || correct == nullptr || failed == nullptr ||
        metrics == nullptr) {
      return std::nullopt;
    }
    if (!correct->boolean) {
      const Json* stamp = row->get("stamp");
      const Json* seed = stamp != nullptr ? stamp->get("seed") : nullptr;
      const std::string seed_text =
          seed != nullptr
              ? std::to_string(static_cast<long long>(seed->number))
              : "?";
      side.rejected.push_back(workload->string + " seed " + seed_text);
      continue;
    }
    side.failed[workload->string] += failed->number;
    for (const auto& [name, metric] : metrics->members) {
      if (const Json* value = metric.get("value")) {
        side.runs[workload->string][name].push_back(value->number);
      }
    }
  }
  return side;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive") in integer arithmetic.
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i - 1)] = (lo * (4 - delta) + hi * delta) / 4;
  }
  return out;
}

int compare(const std::string& base_path, const std::string& candidate_path,
            const std::string& benchmark_path) {
  const auto declared = read_declared(benchmark_path);
  const auto base = read_side(base_path);
  const auto candidate = read_side(candidate_path);
  if (!declared.has_value() || !base.has_value() || !candidate.has_value()) {
    std::fprintf(stderr, "bench_e2e --compare: cannot read %s, %s or %s\n",
                 benchmark_path.c_str(), base_path.c_str(),
                 candidate_path.c_str());
    return 1;
  }
  const auto report_rejected = [](const char* label, const Side& side) {
    for (const std::string& row : side.rejected) {
      std::printf("left out: %s %s, whose output checks failed\n", label,
                  row.c_str());
    }
  };
  report_rejected("A", *base);
  report_rejected("B", *candidate);
  std::printf("%-14s %-40s %28s %28s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "B vs A", "B wins",
              "verdict");
  bool regressed = false;
  for (const auto& [workload, a_metrics] : base->runs) {
    const auto b_it = candidate->runs.find(workload);
    if (b_it == candidate->runs.end()) continue;
    // A gain does not count when B failed more operations than A.
    const bool more_failures =
        candidate->failed.at(workload) > base->failed.at(workload);
    for (const Declared& metric : *declared) {
      const auto a_it = a_metrics.find(metric.name);
      const auto bm_it = b_it->second.find(metric.name);
      if (a_it == a_metrics.end() || bm_it == b_it->second.end()) continue;
      const std::vector<double>& a = a_it->second;
      const std::vector<double>& b = bm_it->second;
      const bool higher = metric.higher_is_better;
      const auto better = [higher](double x, double y) {
        return higher ? x > y : x < y;
      };
      const auto qa = quartiles(a);
      const auto qb = quartiles(b);
      const double med_a = median(a);
      const double med_b = median(b);
      const double iqr_a = qa[2] - qa[0];
      const std::size_t pairs = std::min(a.size(), b.size());
      std::size_t wins = 0;
      std::size_t losses = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        wins += better(b[i], a[i]) ? 1 : 0;
        losses += better(a[i], b[i]) ? 1 : 0;
      }
      const double gain = higher ? med_b - med_a : med_a - med_b;
      const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
      const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
      // Every B run beats every A run.
      const bool b_dominates = higher ? *b_min > *a_max : *b_max < *a_min;
      const char* verdict = "-";
      if (pairs > 0 && wins * 10 >= pairs * 9 && gain > iqr_a) {
        verdict = more_failures ? "not counted" : "improved";
      } else if (!metric.bound.has_value()) {
        // No bound: only the mirror of the improvement rule is reported.
        if (pairs > 0 && losses * 10 >= pairs * 9 && -gain > iqr_a) {
          verdict = "worsened";
        }
      } else if (med_a != 0.0 && iqr_a / std::abs(med_a) > *metric.bound &&
                 !b_dominates) {
        verdict = "unresolved";
      } else if (med_a != 0.0 && -gain / std::abs(med_a) > *metric.bound) {
        verdict = "regressed";
        regressed = true;
      } else {
        verdict = "same";
      }
      char a_text[64];
      char b_text[64];
      std::snprintf(a_text, sizeof(a_text), "%.4g [%.4g, %.4g]", med_a, qa[0],
                    qa[2]);
      std::snprintf(b_text, sizeof(b_text), "%.4g [%.4g, %.4g]", med_b, qb[0],
                    qb[2]);
      std::printf("%-14s %-40s %28s %28s %+7.1f%% %3zu/%-2zu  %s\n",
                  workload.c_str(), metric.name.c_str(), a_text, b_text,
                  med_a != 0.0 ? 100.0 * (med_b - med_a) / std::abs(med_a)
                               : 0.0,
                  wins, pairs, verdict);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace amoeba::bench
