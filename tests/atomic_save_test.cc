// Whole-file writers replace their target through WriteFileAtomically
// (util/atomic_file.h): re-saving a dataset, a cluster manifest or an index
// snapshot over an existing file lands in a new inode by rename and leaves
// no `<path>.tmp.<pid>` file behind, and a save into a missing directory is
// a clean IoError.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "data/dataset.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "test_util.h"

namespace coskq {
namespace {

ino_t InodeOf(const std::string& path) {
  struct stat st;
  EXPECT_EQ(stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

/// The object's keywords as sorted strings (term ids depend on the order
/// a dataset interned its words).
std::vector<std::string> Words(const Dataset& ds, const SpatialObject& obj) {
  std::vector<std::string> words;
  for (TermId t : obj.keywords) {
    words.push_back(ds.vocabulary().TermString(t));
  }
  std::sort(words.begin(), words.end());
  return words;
}

void ExpectNoTempFiles(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << entry.path();
  }
}

TEST(AtomicSaveTest, DatasetResaveReplacesTheFileByRename) {
  const std::string path = test::UniqueTempPath("dataset.txt");
  const Dataset first = test::MakeRandomDataset(200, 20, 3.0, 5);
  ASSERT_TRUE(first.SaveToFile(path).ok());
  const ino_t before = InodeOf(path);
  // Large enough that the writer streams more than one chunk.
  const Dataset second = test::MakeRandomDataset(40000, 300, 4.0, 6);
  ASSERT_TRUE(second.SaveToFile(path).ok());
  EXPECT_NE(InodeOf(path), before);
  ExpectNoTempFiles(path);
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumObjects(), second.NumObjects());
  for (ObjectId id = 0; id < second.NumObjects(); ++id) {
    const SpatialObject& want = second.object(id);
    const SpatialObject& got = loaded->object(id);
    ASSERT_EQ(got.location, want.location) << id;
    EXPECT_EQ(Words(*loaded, got), Words(second, want)) << id;
  }
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, ManifestResaveReplacesTheFileByRename) {
  const std::string path = test::UniqueTempPath("cluster.cqmf");
  ClusterManifest manifest;
  manifest.total_objects = 10;
  manifest.vocabulary = {"a", "b"};
  ASSERT_TRUE(manifest.SaveToFile(path).ok());
  const ino_t before = InodeOf(path);
  manifest.total_objects = 11;
  manifest.vocabulary.push_back("c");
  ASSERT_TRUE(manifest.SaveToFile(path).ok());
  EXPECT_NE(InodeOf(path), before);
  ExpectNoTempFiles(path);
  StatusOr<ClusterManifest> loaded = ClusterManifest::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Encode(), manifest.Encode());
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, SaveIntoAMissingDirectoryIsIoError) {
  const std::string dir = test::UniqueTempPath("no_such_dir");
  ASSERT_FALSE(std::filesystem::exists(dir));
  const Dataset ds = test::MakeRandomDataset(50, 10, 2.0, 7);
  const Status dataset_status = ds.SaveToFile(dir + "/dataset.txt");
  EXPECT_EQ(dataset_status.code(), StatusCode::kIoError)
      << dataset_status.ToString();
  ClusterManifest manifest;
  const Status manifest_status = manifest.SaveToFile(dir + "/cluster.cqmf");
  EXPECT_EQ(manifest_status.code(), StatusCode::kIoError)
      << manifest_status.ToString();
  IrTree tree(&ds);
  const Status snapshot_status = SaveSnapshot(&tree, dir + "/index.cqix");
  EXPECT_EQ(snapshot_status.code(), StatusCode::kIoError)
      << snapshot_status.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace coskq
