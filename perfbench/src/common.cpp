#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "cograph/canonical.hpp"
#include "cograph/cotree.hpp"
#include "core/path_cover.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;

void Tally::fail(const std::string& why, bool wrong_answer) {
  ++failed;
  if (wrong_answer) ++wrong;
  if (reasons.size() < 8) reasons.push_back(why);
}

std::string check_cover(const std::vector<std::vector<std::uint32_t>>& paths,
                        std::uint32_t n, std::int64_t expected_paths) {
  if (std::int64_t(paths.size()) != expected_paths) {
    return "path count " + std::to_string(paths.size()) + " != expected " +
           std::to_string(expected_paths);
  }
  std::vector<char> seen(n, 0);
  std::size_t total = 0;
  for (const auto& p : paths) {
    if (p.empty()) return "empty path";
    for (const std::uint32_t v : p) {
      if (v >= n || seen[v] != 0) {
        return "vertex " + std::to_string(v) + " out of range or repeated";
      }
      seen[v] = 1;
      ++total;
    }
  }
  if (total != n) return "cover misses vertices";
  return {};
}

std::string check_wire(proto::Status status, const proto::WireResult& r,
                       const Body& body) {
  if (status != proto::Status::Ok) {
    return std::string("status ") + proto::to_string(status);
  }
  if (!r.ok) return "result not ok";
  if (r.vertex_count != body.n) return "vertex count mismatch";
  if (r.has_verdicts && r.optimal_size != body.paths) {
    return "optimal size " + std::to_string(r.optimal_size) +
           " != expected " + std::to_string(body.paths);
  }
  return check_cover(r.paths, body.n, body.paths);
}

std::string validate_full(
    const Body& body, const std::vector<std::vector<std::uint32_t>>& paths) {
  try {
    const copath::cograph::Cotree tree =
        body.is_sig ? copath::cograph::decode_signature(body.bytes).tree
                    : copath::cograph::Cotree::parse(body.bytes);
    copath::core::PathCover cover;
    for (const auto& p : paths) {
      cover.paths.emplace_back(p.begin(), p.end());
    }
    const copath::core::ValidationReport rep =
        copath::core::validate_path_cover(tree, cover, true);
    return rep.ok ? std::string() : "validator: " + rep.error;
  } catch (const std::exception& e) {
    return std::string("validator threw: ") + e.what();
  }
}

std::vector<double> SpanLog::self_ns() const {
  std::vector<double> self(spans_.size());
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = double(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  for (auto& [parent, kids] : children) {
    const Span& p = spans_[parent - 1];
    std::sort(kids.begin(), kids.end(), [this](std::size_t a, std::size_t b) {
      return spans_[a].start_ns < spans_[b].start_ns;
    });
    std::int64_t covered = 0, reach = p.start_ns;
    for (const std::size_t k : kids) {
      const std::int64_t lo = std::max(spans_[k].start_ns, reach);
      const std::int64_t hi = std::min(spans_[k].end_ns, p.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[parent - 1] -= double(covered);
  }
  return self;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
