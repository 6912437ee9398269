// Forges snapshot files of the legacy formats (v1-v3, both old node
// layouts) from a v4 file of the same tree, byte for byte as the old builds
// wrote them. Shared by the snapshot format tests and the differential
// suites that run a tree loaded from a legacy level-grouped file against a
// freshly frozen one.
//
// The format constants mirror snapshot.cc on purpose: these helpers pin the
// on-disk layout, so they must not share code with the implementation.

#ifndef COSKQ_TESTS_SNAPSHOT_FORGE_H_
#define COSKQ_TESTS_SNAPSHOT_FORGE_H_

#include <string.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "index/term_signature.h"
#include "util/status.h"

namespace coskq {
namespace snapshot_forge {

constexpr size_t kV1HeaderBytes = 48;
constexpr size_t kV2HeaderBytes = 56;
constexpr size_t kHeaderBytes = 64;  // v3 and v4
constexpr size_t kHeaderRegionBytes = 4096;  // v2+
constexpr size_t kVersionOffset = 4;         // uint16
constexpr size_t kNumNodesOffset = 24;       // uint32
constexpr size_t kNumLeafEntriesOffset = 28; // uint32
constexpr size_t kNumTermsOffset = 32;       // uint32
constexpr size_t kBodyBytesOffset = 40;      // uint64
constexpr size_t kLayoutOffset = 48;         // uint32, v2+ (0 in v4)
constexpr size_t kNumPostTermsOffset = 56;   // uint32, v3+
constexpr size_t kNumPostingsOffset = 60;    // uint32, v3+
// FrozenNodeRecord (32 bytes) field offsets.
constexpr size_t kRecordBytes = 32;
constexpr size_t kRecEntryBeginOffset = 8;   // uint32
constexpr size_t kRecEntryCountOffset = 12;  // uint16
constexpr size_t kRecFlagsOffset = 14;       // uint16
constexpr size_t kRecTermBeginOffset = 16;   // uint32
constexpr size_t kRecTermCountOffset = 20;   // uint32


inline std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

inline void WriteAll(const std::string& path,
                     const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Independent reimplementation of the snapshot checksum (4-lane word
// FNV-1a), so tests can forge well-formed files without reusing the code
// under test.
inline uint64_t FileChecksum(const char* data, size_t len) {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {kOffset, kOffset + 1, kOffset + 2, kOffset + 3};
  EXPECT_EQ(len % 8, 0u);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t word;
    memcpy(&word, data + i, sizeof(word));
    uint64_t& lane = lanes[(i / 8) & 3];
    lane ^= word;
    lane *= kPrime;
  }
  uint64_t h = kOffset;
  for (uint64_t lane : lanes) {
    h ^= lane;
    h *= kPrime;
  }
  return h;
}

// Re-signs a forged file: recomputes the trailer checksum over everything
// before it, so a mutation test exercises the check it targets instead of
// tripping the checksum first.
inline void Resign(std::vector<char>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t sum = FileChecksum(bytes->data(), bytes->size() - 8);
  memcpy(bytes->data() + bytes->size() - 8, &sum, sizeof(sum));
}

template <typename T>
inline T ReadAt(const std::vector<char>& bytes, size_t off) {
  T v;
  memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

template <typename T>
inline void WriteAt(std::vector<char>* bytes, size_t off, T v) {
  memcpy(bytes->data() + off, &v, sizeof(v));
}

inline size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

// Byte offsets (inside the body) of the v4 sections, as the format defines
// them: node records, the four MBR lanes, the term arena, the leaf-entry
// id/x/y arrays and the posting file, each 8-byte aligned.
struct V4Sections {
  size_t nodes = 0;
  size_t lanes[4] = {};  // min_x, min_y, max_x, max_y
  size_t terms = 0;
  size_t leaf_ids = 0;
  size_t leaf_x = 0;
  size_t leaf_y = 0;
  size_t post_begin = 0;
  size_t post_entries = 0;
  size_t end = 0;

  std::vector<size_t> Starts() const {
    return {nodes,    lanes[0], lanes[1], lanes[2],   lanes[3],    terms,
            leaf_ids, leaf_x,   leaf_y,   post_begin, post_entries};
  }
};

// A parsed v4 file: its header counts and section offsets.
struct V4File {
  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  uint32_t num_terms = 0;
  uint32_t num_post_terms = 0;
  uint32_t num_postings = 0;
  V4Sections body;  // offsets inside the body
  size_t post_begin = 0;    // file offset of post_begin[0]
  size_t post_entries = 0;  // file offset of post_entries[0]
};

inline V4File ParseV4(const std::vector<char>& v4) {
  V4File f;
  EXPECT_EQ(ReadAt<uint16_t>(v4, kVersionOffset), 4u);
  EXPECT_EQ(ReadAt<uint32_t>(v4, kLayoutOffset), 0u);
  f.num_nodes = ReadAt<uint32_t>(v4, kNumNodesOffset);
  f.num_leaf_entries = ReadAt<uint32_t>(v4, kNumLeafEntriesOffset);
  f.num_terms = ReadAt<uint32_t>(v4, kNumTermsOffset);
  f.num_post_terms = ReadAt<uint32_t>(v4, kNumPostTermsOffset);
  f.num_postings = ReadAt<uint32_t>(v4, kNumPostingsOffset);
  size_t off = 0;
  const auto section = [&off](size_t bytes) {
    const size_t begin = off;
    off += Align8(bytes);
    return begin;
  };
  V4Sections& b = f.body;
  b.nodes = section(size_t{f.num_nodes} * kRecordBytes);
  for (size_t& lane : b.lanes) {
    lane = section(size_t{f.num_nodes} * 8);
  }
  b.terms = section(size_t{f.num_terms} * 4);
  b.leaf_ids = section(size_t{f.num_leaf_entries} * 4);
  b.leaf_x = section(size_t{f.num_leaf_entries} * 8);
  b.leaf_y = section(size_t{f.num_leaf_entries} * 8);
  b.post_begin = section((size_t{f.num_post_terms} + 1) * 4);
  b.post_entries = section(size_t{f.num_postings} * 4);
  b.end = off;
  f.post_begin = kHeaderRegionBytes + b.post_begin;
  f.post_entries = kHeaderRegionBytes + b.post_entries;
  EXPECT_EQ(kHeaderRegionBytes + b.end + 8, v4.size());
  return f;
}

// Byte offsets (inside the body) of the sections every legacy (v1-v3)
// version shares: the node region in one of the two legacy node layouts,
// then the term arena and the leaf-entry id/x/y/signature arrays, each
// 8-byte aligned. `tail` is where the version-specific sections start (v3:
// postings; v1/v2: keyword spans). The level-grouped node region tiles the
// slots into 4096-byte groups of 64 records followed by their four MBR
// lanes; the bfs one is the v4 node region.
struct LegacySections {
  bool level_grouped = false;
  uint32_t nodes = 0;
  size_t terms = 0;
  size_t leaf_ids = 0;
  size_t leaf_x = 0;
  size_t leaf_y = 0;
  size_t leaf_sigs = 0;
  size_t tail = 0;

  size_t Record(uint32_t slot) const {
    return level_grouped ? (slot / 64) * 4096 + (slot % 64) * kRecordBytes
                         : slot * kRecordBytes;
  }
  size_t Lane(int k, uint32_t slot) const {
    return level_grouped
               ? (slot / 64) * 4096 + 64 * kRecordBytes + k * 512 +
                     (slot % 64) * 8
               : Align8(nodes * kRecordBytes) + k * Align8(size_t{nodes} * 8) +
                     slot * 8;
  }
};

inline LegacySections SectionsFor(bool level_grouped, uint32_t nodes,
                                  uint32_t entries, uint32_t terms) {
  LegacySections c;
  c.level_grouped = level_grouped;
  c.nodes = nodes;
  size_t off = level_grouped ? (nodes + 63) / 64 * 4096
                             : Align8(nodes * kRecordBytes) +
                                   4 * Align8(size_t{nodes} * 8);
  c.terms = off;
  off += Align8(size_t{terms} * 4);
  c.leaf_ids = off;
  off += Align8(size_t{entries} * 4);
  c.leaf_x = off;
  off += Align8(size_t{entries} * 8);
  c.leaf_y = off;
  off += Align8(size_t{entries} * 8);
  c.leaf_sigs = off;
  off += Align8(size_t{entries} * 8);
  c.tail = off;
  return c;
}

// The keyword set of every leaf entry, recovered by transposing a posting
// file (post_begin/post_entries at file offsets `begin`/`entries`).
inline std::vector<TermSet> KeywordsFromPostings(
    const std::vector<char>& file, uint32_t num_leaf_entries,
    uint32_t num_post_terms, size_t begin, size_t entries) {
  std::vector<TermSet> keywords(num_leaf_entries);
  for (uint32_t t = 0; t < num_post_terms; ++t) {
    const uint32_t first = ReadAt<uint32_t>(file, begin + 4 * t);
    const uint32_t last = ReadAt<uint32_t>(file, begin + 4 * (t + 1));
    for (uint32_t i = first; i < last; ++i) {
      keywords[ReadAt<uint32_t>(file, entries + 4 * i)].push_back(t);
    }
  }
  return keywords;
}

// Synthesizes the byte-exact v3 file a v3 build wrote for the same tree as
// the v4 file `v4`, in either legacy node layout: the node records and MBR
// lanes moved into that layout's node region, the per-entry Bloom
// signatures (`leaf_sigs`) re-inserted after the leaf y array, and the
// layout id in the header.
inline std::vector<char> MakeV3File(const std::vector<char>& v4,
                                    bool level_grouped) {
  const V4File f = ParseV4(v4);
  const V4Sections& b = f.body;
  const char* body = v4.data() + kHeaderRegionBytes;
  const LegacySections c = SectionsFor(level_grouped, f.num_nodes,
                                       f.num_leaf_entries, f.num_terms);
  const size_t post_bytes = b.end - b.post_begin;
  std::vector<char> v3_body(c.tail + post_bytes, '\0');
  for (uint32_t slot = 0; slot < f.num_nodes; ++slot) {
    memcpy(v3_body.data() + c.Record(slot),
           body + b.nodes + slot * kRecordBytes, kRecordBytes);
    for (int k = 0; k < 4; ++k) {
      memcpy(v3_body.data() + c.Lane(k, slot), body + b.lanes[k] + slot * 8,
             8);
    }
  }
  memcpy(v3_body.data() + c.terms, body + b.terms, b.leaf_ids - b.terms);
  memcpy(v3_body.data() + c.leaf_ids, body + b.leaf_ids,
         b.post_begin - b.leaf_ids);
  const std::vector<TermSet> keywords = KeywordsFromPostings(
      v4, f.num_leaf_entries, f.num_post_terms, f.post_begin, f.post_entries);
  for (uint32_t e = 0; e < f.num_leaf_entries; ++e) {
    const uint64_t sig = TermSetSignature(keywords[e]);
    memcpy(v3_body.data() + c.leaf_sigs + 8 * e, &sig, sizeof(sig));
  }
  memcpy(v3_body.data() + c.tail, body + b.post_begin, post_bytes);

  std::vector<char> out(kHeaderRegionBytes + v3_body.size() + 8, '\0');
  memcpy(out.data(), v4.data(), kHeaderBytes);
  WriteAt<uint16_t>(&out, kVersionOffset, 3);
  WriteAt<uint32_t>(&out, kLayoutOffset, level_grouped ? 1 : 0);
  WriteAt<uint64_t>(&out, kBodyBytesOffset, v3_body.size());
  memcpy(out.data() + kHeaderRegionBytes, v3_body.data(), v3_body.size());
  Resign(&out);
  return out;
}

// Synthesizes the byte-exact file a pre-v3 build wrote for the same tree
// as the v3 file `v3`: the keyword sets are recovered by transposing the
// posting file, then laid out v1/v2 style — one term arena interleaving,
// slot by slot, each node's summary and its leaf objects' keyword sets,
// addressed by per-entry (begin, count) spans. v1 has the bare 48-byte
// header (bfs only), v2 the 56-byte header padded to 4096 bytes. This pins
// backward compatibility without keeping an old binary around.
inline std::vector<char> MakeLegacyFile(const std::vector<char>& v3,
                                        uint16_t version) {
  EXPECT_EQ(ReadAt<uint16_t>(v3, kVersionOffset), 3u);
  const uint32_t num_nodes = ReadAt<uint32_t>(v3, kNumNodesOffset);
  const uint32_t num_leaf_entries = ReadAt<uint32_t>(v3, kNumLeafEntriesOffset);
  const uint32_t num_terms = ReadAt<uint32_t>(v3, kNumTermsOffset);
  const uint32_t num_post_terms = ReadAt<uint32_t>(v3, kNumPostTermsOffset);
  const LegacySections c =
      SectionsFor(ReadAt<uint32_t>(v3, kLayoutOffset) == 1, num_nodes,
                  num_leaf_entries, num_terms);
  const size_t post_begin = kHeaderRegionBytes + c.tail;
  const size_t post_entries =
      post_begin + Align8((size_t{num_post_terms} + 1) * 4);
  const char* body = v3.data() + kHeaderRegionBytes;
  const std::vector<TermSet> keywords = KeywordsFromPostings(
      v3, num_leaf_entries, num_post_terms, post_begin, post_entries);
  std::vector<char> node_region(body, body + c.terms);
  std::vector<uint32_t> arena;
  std::vector<uint32_t> span_begin(num_leaf_entries);
  std::vector<uint32_t> span_count(num_leaf_entries);
  for (uint32_t slot = 0; slot < num_nodes; ++slot) {
    const size_t rec = c.Record(slot);
    const uint32_t term_begin =
        ReadAt<uint32_t>(node_region, rec + kRecTermBeginOffset);
    const uint32_t term_count =
        ReadAt<uint32_t>(node_region, rec + kRecTermCountOffset);
    WriteAt<uint32_t>(&node_region, rec + kRecTermBeginOffset,
                      static_cast<uint32_t>(arena.size()));
    for (uint32_t i = 0; i < term_count; ++i) {
      arena.push_back(ReadAt<uint32_t>(v3, kHeaderRegionBytes + c.terms +
                                               4 * (term_begin + i)));
    }
    if ((ReadAt<uint16_t>(node_region, rec + kRecFlagsOffset) & 1) == 0) {
      continue;
    }
    const uint32_t entry_begin =
        ReadAt<uint32_t>(node_region, rec + kRecEntryBeginOffset);
    const uint16_t entry_count =
        ReadAt<uint16_t>(node_region, rec + kRecEntryCountOffset);
    for (uint32_t e = entry_begin; e < entry_begin + entry_count; ++e) {
      span_begin[e] = static_cast<uint32_t>(arena.size());
      span_count[e] = static_cast<uint32_t>(keywords[e].size());
      arena.insert(arena.end(), keywords[e].begin(), keywords[e].end());
    }
  }
  const uint32_t legacy_terms = static_cast<uint32_t>(arena.size());
  const LegacySections lc = SectionsFor(c.level_grouped, num_nodes,
                                        num_leaf_entries, legacy_terms);
  const size_t spans = Align8(size_t{num_leaf_entries} * 4);
  std::vector<char> legacy_body(lc.tail + 2 * spans, '\0');
  memcpy(legacy_body.data(), node_region.data(), node_region.size());
  memcpy(legacy_body.data() + lc.terms, arena.data(), arena.size() * 4);
  memcpy(legacy_body.data() + lc.leaf_ids, body + c.leaf_ids,
         c.tail - c.leaf_ids);
  memcpy(legacy_body.data() + lc.tail, span_begin.data(),
         span_begin.size() * 4);
  memcpy(legacy_body.data() + lc.tail + spans, span_count.data(),
         span_count.size() * 4);

  const size_t region = version == 1 ? kV1HeaderBytes : kHeaderRegionBytes;
  std::vector<char> out(region + legacy_body.size() + 8, '\0');
  memcpy(out.data(), v3.data(),
         version == 1 ? kV1HeaderBytes : kV2HeaderBytes);
  WriteAt<uint16_t>(&out, kVersionOffset, version);
  WriteAt<uint32_t>(&out, kNumTermsOffset, legacy_terms);
  WriteAt<uint64_t>(&out, kBodyBytesOffset, legacy_body.size());
  memcpy(out.data() + region, legacy_body.data(), legacy_body.size());
  Resign(&out);
  return out;
}

// Saves `tree` as v4, rewrites the file as the v3 file a level-grouped build
// wrote for the same tree, and loads that. The legacy body is converted into
// an owned v4 body, so both temp files are gone when this returns.
inline StatusOr<std::unique_ptr<IrTree>> LoadAsLevelGroupedV3(
    const Dataset* dataset, IrTree* tree, const std::string& path_stem) {
  const std::string v4_path = path_stem + ".v4.cqix";
  const std::string v3_path = path_stem + ".v3lg.cqix";
  const Status saved = SaveSnapshot(tree, v4_path);
  if (!saved.ok()) {
    return saved;
  }
  WriteAll(v3_path, MakeV3File(ReadAll(v4_path), true));
  std::remove(v4_path.c_str());
  StatusOr<std::unique_ptr<IrTree>> loaded = LoadSnapshot(dataset, v3_path);
  std::remove(v3_path.c_str());
  return loaded;
}

}  // namespace snapshot_forge
}  // namespace coskq

#endif  // COSKQ_TESTS_SNAPSHOT_FORGE_H_
