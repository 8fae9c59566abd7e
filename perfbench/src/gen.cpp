#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "cograph/canonical.hpp"
#include "cograph/families.hpp"
#include "copath_solver.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

// Bases and tags per cold_wire seed. Fresh composites: kFreshBases *
// kTags pairs; the last kWarmReserve are kept for warm-up frames.
constexpr std::size_t kFreshBases = 1021;
constexpr std::size_t kRestartBases = 509;
constexpr std::size_t kSmallBases = 509;
constexpr std::size_t kTags = 256;
constexpr std::uint64_t kWarmReserve = 4096;

// Salts keep the seeded sub-streams disjoint.
constexpr std::uint64_t kSaltHot = 0x1001, kSaltFresh = 0x2002,
                        kSaltRestart = 0x3003, kSaltSmall = 0x4004,
                        kSaltTag = 0x5005, kSaltPaper = 0x6006,
                        kSaltFrame = 0x7007;

/// n log-uniform in [2^lo, 2^hi].
std::uint32_t log_uniform_n(std::uint64_t r, int lo, int hi) {
  const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
  return static_cast<std::uint32_t>(
      std::lround(std::exp2(lo + u * double(hi - lo))));
}

std::int64_t count_paths(const copath::cograph::Cotree& t) {
  const copath::Solver solver;
  const copath::CountResult c =
      solver.count({copath::Instance::view(t), {}, {}});
  COPATH_CHECK_MSG(c.ok, "perfbench: count failed: " + c.error);
  return c.path_cover_size;
}

/// Random cotree with `n` leaves; `root` is -1 (either), 0 (union) or 1
/// (join). Text leaves are named `<leaf>0..`.
Item make_item(std::uint32_t n, std::uint64_t seed, int root = -1,
               char leaf = 'v') {
  copath::cograph::RandomCotreeOptions opt;
  opt.seed = seed;
  if (root >= 0) opt.join_root_probability = root == 1 ? 1.0 : 0.0;
  const copath::cograph::Cotree tree =
      copath::cograph::random_cotree(n, opt);
  Item it;
  it.text = tree.format();
  if (leaf != 'v') std::replace(it.text.begin(), it.text.end(), 'v', leaf);
  it.sig = copath::cograph::canonical_form(tree, false).signature;
  it.n = static_cast<std::uint32_t>(tree.vertex_count());
  it.paths = count_paths(tree);
  it.join_root = tree.kind(tree.root()) == copath::cograph::NodeKind::Join;
  return it;
}

/// The composite of base `b` and tag `t` under a root of the kind neither
/// root has (so the tree stays alternating). Minimum path cover of a
/// union is the sum; of a join, max(1, p1 - n2, p2 - n1).
Body compose(const Item& b, const Item& t, bool as_sig) {
  COPATH_CHECK(b.join_root == t.join_root);
  const bool wrap_join = !b.join_root;
  Body out;
  out.is_sig = as_sig;
  out.n = b.n + t.n;
  out.paths = wrap_join
                  ? std::max<std::int64_t>(
                        {1, b.paths - std::int64_t{t.n},
                         t.paths - std::int64_t{b.n}})
                  : b.paths + t.paths;
  if (as_sig) {
    out.bytes.reserve(b.sig.size() + t.sig.size() + 2);
    out.bytes.append(b.sig).append(t.sig);
    out.bytes.push_back(wrap_join ? copath::cograph::kSigJoin
                                  : copath::cograph::kSigUnion);
    out.bytes.push_back('\x02');  // LEB128 arity 2
  } else {
    out.bytes.reserve(b.text.size() + t.text.size() + 6);
    out.bytes.append(wrap_join ? "(* " : "(+ ")
        .append(b.text)
        .append(" ")
        .append(t.text)
        .append(")");
  }
  return out;
}

std::vector<Item> make_bases(std::size_t count, std::uint64_t seed,
                             std::uint64_t salt, int lo, int hi) {
  std::vector<Item> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = mix(seed ^ salt, i);
    out.push_back(make_item(log_uniform_n(r, lo, hi), mix(r, 1)));
  }
  return out;
}

/// `count` structurally distinct tags with the given root kind.
std::vector<Item> make_tags(std::size_t count, std::uint64_t seed,
                            bool join_root) {
  std::vector<Item> out;
  std::set<std::string> seen;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    COPATH_CHECK_MSG(i < 64 * count, "perfbench: tag space exhausted");
    const std::uint64_t r = mix(seed ^ kSaltTag ^ (join_root ? 1 : 0), i);
    Item t = make_item(10 + static_cast<std::uint32_t>(r % 15), mix(r, 1),
                       join_root ? 1 : 0, 'w');
    if (seen.insert(t.sig).second) out.push_back(std::move(t));
  }
  return out;
}

const Item& tag_for(const ColdStream& s, const Item& base, std::uint64_t t) {
  const auto& tags = base.join_root ? s.join_tags : s.union_tags;
  return tags[t % tags.size()];
}

Body composite(const ColdStream& s, const std::vector<Item>& bases,
               std::uint64_t p, bool as_sig) {
  const Item& b = bases[p % bases.size()];
  return compose(b, tag_for(s, b, p / bases.size()), as_sig);
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + i;
  copath::util::splitmix64(state);
  return copath::util::splitmix64(state);
}

HotStream make_hot(std::uint64_t seed) {
  HotStream s;
  s.seed = seed;
  for (std::uint64_t i = 0; i < 16; ++i) {
    s.items.push_back(make_item(1024, mix(seed ^ kSaltHot, i)));
  }
  return s;
}

Frame HotStream::frame(std::uint64_t i) const {
  const Item& it = items[mix(seed ^ kSaltFrame, i) % items.size()];
  const bool text = i % 4 == 3;
  Frame f;
  f.bodies.push_back(Body{!text, text ? it.text : it.sig, it.n, it.paths});
  return f;
}

ColdStream make_cold(std::uint64_t seed, std::uint64_t restart_count) {
  ColdStream s;
  s.seed = seed;
  s.fresh_bases = make_bases(kFreshBases, seed, kSaltFresh, 8, 12);
  s.restart_bases = make_bases(kRestartBases, seed, kSaltRestart, 8, 12);
  s.small_bases = make_bases(kSmallBases, seed, kSaltSmall, 6, 8);
  s.join_tags = make_tags(kTags, seed, true);
  s.union_tags = make_tags(kTags, seed, false);
  COPATH_CHECK_MSG(restart_count <= kRestartBases * kTags,
                   "perfbench: restart composites exhausted");
  s.restart_count = restart_count;
  return s;
}

Body ColdStream::fresh(std::uint64_t p) const {
  return composite(*this, fresh_bases, p, p % 2 == 1);
}

Body ColdStream::restart(std::uint64_t r) const {
  COPATH_CHECK_MSG(r < restart_count,
                   "perfbench: run outgrew the restart composites");
  return composite(*this, restart_bases, r, r % 2 == 1);
}

Body ColdStream::small(std::uint64_t q) const {
  COPATH_CHECK_MSG(q < small_bases.size() * kTags,
                   "perfbench: small composites exhausted");
  return composite(*this, small_bases, q, q % 2 == 1);
}

Body ColdStream::warm(std::uint64_t w) const {
  COPATH_CHECK(w < kWarmReserve);
  return fresh(fresh_bases.size() * kTags - 1 - w);
}

std::uint64_t ColdStream::frame_capacity() const {
  // Per 8 frames: 3.5 fresh composites and 11 small ones.
  const std::uint64_t fresh_cap = fresh_bases.size() * kTags - kWarmReserve;
  const std::uint64_t small_cap = small_bases.size() * kTags / kBatchUnique;
  return std::min(fresh_cap * 8 / 4, small_cap * 8);
}

std::uint64_t ColdStream::restarts_needed(std::uint64_t frames) {
  return frames * 7 / 16 + 2;
}

Frame ColdStream::frame(std::uint64_t i) const {
  const std::uint64_t block = i / 8, pos = i % 8;
  Frame f;
  if (pos == 7) {
    // kBatchUnique never-seen small items plus duplicates of them, in a
    // seeded order: intra-frame dedup and packing both have work to do.
    f.batch = true;
    std::vector<std::uint64_t> slots;
    for (std::uint64_t u = 0; u < kBatchItems; ++u) {
      slots.push_back(u < kBatchUnique
                          ? u
                          : mix(seed ^ kSaltSmall, block * 64 + u) %
                                kBatchUnique);
    }
    for (std::size_t k = slots.size(); k > 1; --k) {
      std::swap(slots[k - 1],
                slots[mix(seed ^ kSaltFrame, block * 64 + k) % k]);
    }
    for (const std::uint64_t u : slots) {
      f.bodies.push_back(small(block * kBatchUnique + u));
    }
    return f;
  }
  const std::uint64_t j = block * 7 + pos;
  f.bodies.push_back(j % 2 == 0 ? fresh(j / 2) : restart(j / 2));
  return f;
}

ProbeSet make_paper_trees(std::uint64_t seed) {
  ProbeSet s;
  constexpr double kSkews[] = {0.0, 0.0, 0.9, 0.9};
  for (std::uint64_t k = 0; k < 4; ++k) {
    copath::cograph::RandomCotreeOptions opt;
    opt.seed = mix(seed ^ kSaltPaper, k);
    opt.skew = kSkews[k];
    s.trees.push_back(copath::cograph::random_cotree(1u << 16, opt));
    s.paths.push_back(count_paths(s.trees.back()));
  }
  return s;
}

}  // namespace perfbench
