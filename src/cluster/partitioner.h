#ifndef COSKQ_CLUSTER_PARTITIONER_H_
#define COSKQ_CLUSTER_PARTITIONER_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "data/dataset.h"
#include "util/status.h"

namespace coskq {

/// The spatial partition an STR pass produces, before any files are written.
struct StrPartition {
  /// Per shard: the member objects' global ids in ascending order.
  std::vector<std::vector<ObjectId>> shard_objects;
  /// Per shard: the closed STR tile. Tiles share edges and together cover
  /// the dataset MBR exactly (zero-area pairwise overlap, areas summing to
  /// the dataset MBR area); every member object lies inside its tile.
  std::vector<Rect> tiles;
};

/// Sort-Tile-Recursive partition of `dataset` into `num_shards` spatial
/// shards — the same tiling discipline the IR-tree's STR bulk load uses,
/// applied once at cluster grain: sort by x into ceil(sqrt(K)) columns, then
/// each column by y into its share of shards. Deterministic (ties broken by
/// object id) and balanced to within one object per cut.
///
/// Requires 1 <= num_shards <= NumObjects(); anything else is an
/// InvalidArgument.
StatusOr<StrPartition> StrPartitionDataset(const Dataset& dataset,
                                           uint32_t num_shards);

/// How BuildShardedCluster freezes the per-shard indexes.
struct BuildClusterOptions {
  uint32_t num_shards = 4;
  /// IR-tree fan-out for the per-shard indexes.
  int max_entries = 32;
};

/// Partitions `dataset`, writes one dataset file ("shard_%04u.txt") and one
/// frozen index snapshot ("shard_%04u.cqix") per shard into `out_dir`
/// (which must exist), and writes the versioned manifest
/// ("cluster.cqmf") binding them all together. Returns the manifest.
///
/// Shard dataset files round-trip coordinates bit-exactly (max_digits10),
/// so a shard server that re-loads its file computes the same
/// ContentChecksum the snapshot was frozen against — the snapshot load's
/// dataset binding keeps holding across the file hop.
StatusOr<ClusterManifest> BuildShardedCluster(
    const Dataset& dataset, const std::string& out_dir,
    const BuildClusterOptions& options);

}  // namespace coskq

#endif  // COSKQ_CLUSTER_PARTITIONER_H_
