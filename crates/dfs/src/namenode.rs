//! The namenode: file → replica-location bookkeeping.

use simcore::SimRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Identifies a DataNode. The cluster layer co-locates DataNode *n* with
/// RegionServer *n*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataNodeId(pub u64);

impl fmt::Display for DataNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dn-{}", self.0)
    }
}

/// Identifies a stored file. The cluster layer uses the storage engine's
/// file ids directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DfsFileId(pub u64);

impl fmt::Display for DfsFileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file-{}", self.0)
    }
}

/// Errors from namenode operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DfsError {
    /// The referenced DataNode is not registered.
    UnknownDataNode(DataNodeId),
    /// The referenced file does not exist.
    UnknownFile(DfsFileId),
    /// A file with this id already exists.
    DuplicateFile(DfsFileId),
    /// Removing the node would leave zero replicas of some file and no
    /// other node can take them.
    NoReplicaTarget,
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::UnknownDataNode(n) => write!(f, "unknown datanode {n}"),
            DfsError::UnknownFile(id) => write!(f, "unknown file {id}"),
            DfsError::DuplicateFile(id) => write!(f, "duplicate file {id}"),
            DfsError::NoReplicaTarget => write!(f, "no datanode available for re-replication"),
        }
    }
}

impl std::error::Error for DfsError {}

/// HDFS block size: files larger than this split into independently
/// placed blocks (the real default is 64 MB in the paper's era).
pub const DFS_BLOCK_BYTES: u64 = 64 * 1024 * 1024;

#[derive(Debug, Clone)]
struct BlockMeta {
    size_bytes: u64,
    replicas: BTreeSet<DataNodeId>,
}

#[derive(Debug, Clone)]
struct FileMeta {
    size_bytes: u64,
    blocks: Vec<BlockMeta>,
}

impl FileMeta {
    fn all_replica_nodes(&self) -> BTreeSet<DataNodeId> {
        self.blocks.iter().flat_map(|b| b.replicas.iter().copied()).collect()
    }

    fn local_bytes(&self, node: DataNodeId) -> u64 {
        self.blocks.iter().filter(|b| b.replicas.contains(&node)).map(|b| b.size_bytes).sum()
    }
}

/// The file → replica map plus placement policy.
#[derive(Debug)]
pub struct Namenode {
    replication: usize,
    nodes: BTreeSet<DataNodeId>,
    files: BTreeMap<DfsFileId, FileMeta>,
    rng: SimRng,
    telemetry: telemetry::Telemetry,
    // Blocks left under-replicated by a datanode *failure* (as opposed to
    // a planned decommission, which re-replicates synchronously): repaired
    // lazily by `rereplicate_step`, modelling HDFS's background recovery.
    pending_rerep: VecDeque<(DfsFileId, usize, u64)>,
    under_replicated: u64,
    rerep_credit: u64,
}

impl Namenode {
    /// Creates a namenode with the given replication factor (the paper's
    /// experiments use 2).
    pub fn new(replication: usize, rng: SimRng) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        Namenode {
            replication,
            nodes: BTreeSet::new(),
            files: BTreeMap::new(),
            rng,
            telemetry: telemetry::Telemetry::disabled(),
            pending_rerep: VecDeque::new(),
            under_replicated: 0,
            rerep_credit: 0,
        }
    }

    /// Routes namespace metrics (file/block creation, re-replication
    /// traffic, datanode count) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers a DataNode.
    pub fn add_datanode(&mut self, node: DataNodeId) {
        self.nodes.insert(node);
        self.telemetry.gauge_set("dfs_datanodes", &[], self.nodes.len() as f64);
    }

    /// Registered DataNodes.
    pub fn datanodes(&self) -> Vec<DataNodeId> {
        self.nodes.iter().copied().collect()
    }

    /// Configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Creates a file of `size_bytes` written from `writer`. The file
    /// splits into [`DFS_BLOCK_BYTES`] blocks; for each block the first
    /// replica lands on the writer's DataNode (HDFS's writer-local policy)
    /// and the remaining replicas on distinct random other nodes,
    /// independently per block. Returns the union of replica nodes.
    pub fn create_file(
        &mut self,
        id: DfsFileId,
        size_bytes: u64,
        writer: DataNodeId,
    ) -> Result<Vec<DataNodeId>, DfsError> {
        if self.files.contains_key(&id) {
            return Err(DfsError::DuplicateFile(id));
        }
        if !self.nodes.contains(&writer) {
            return Err(DfsError::UnknownDataNode(writer));
        }
        let mut blocks = Vec::new();
        let mut remaining = size_bytes;
        loop {
            let block_size = remaining.min(DFS_BLOCK_BYTES);
            let mut replicas = BTreeSet::new();
            replicas.insert(writer);
            let mut others: Vec<DataNodeId> =
                self.nodes.iter().copied().filter(|n| *n != writer).collect();
            self.rng.shuffle(&mut others);
            for n in others.into_iter().take(self.replication.saturating_sub(1)) {
                replicas.insert(n);
            }
            blocks.push(BlockMeta { size_bytes: block_size, replicas });
            if remaining <= DFS_BLOCK_BYTES {
                break;
            }
            remaining -= DFS_BLOCK_BYTES;
        }
        let meta = FileMeta { size_bytes, blocks };
        let out: Vec<DataNodeId> = meta.all_replica_nodes().into_iter().collect();
        self.telemetry.counter_add("dfs_files_created_total", &[], 1);
        self.telemetry.counter_add("dfs_blocks_created_total", &[], meta.blocks.len() as u64);
        self.telemetry.counter_add("dfs_bytes_written_total", &[], size_bytes);
        self.files.insert(id, meta);
        Ok(out)
    }

    /// Deletes a file and its replicas.
    pub fn delete_file(&mut self, id: DfsFileId) -> Result<(), DfsError> {
        let removed = self.files.remove(&id).map(|_| ()).ok_or(DfsError::UnknownFile(id));
        if removed.is_ok() {
            self.telemetry.counter_add("dfs_files_deleted_total", &[], 1);
        }
        removed
    }

    /// The nodes holding at least one replica of any of the file's blocks.
    pub fn replicas(&self, id: DfsFileId) -> Result<Vec<DataNodeId>, DfsError> {
        self.files
            .get(&id)
            .map(|m| m.all_replica_nodes().into_iter().collect())
            .ok_or(DfsError::UnknownFile(id))
    }

    /// True when `node` holds a replica of *every* block of `id` (the file
    /// is fully locally readable there).
    pub fn is_local(&self, id: DfsFileId, node: DataNodeId) -> Result<bool, DfsError> {
        self.files
            .get(&id)
            .map(|m| m.blocks.iter().all(|b| b.replicas.contains(&node)))
            .ok_or(DfsError::UnknownFile(id))
    }

    /// Fraction of the file's bytes locally readable at `node` (block
    /// granular; 1.0 for an empty file).
    pub fn local_fraction(&self, id: DfsFileId, node: DataNodeId) -> Result<f64, DfsError> {
        let meta = self.files.get(&id).ok_or(DfsError::UnknownFile(id))?;
        if meta.size_bytes == 0 {
            return Ok(1.0);
        }
        Ok(meta.local_bytes(node) as f64 / meta.size_bytes as f64)
    }

    /// The locality index of a server co-located with `node`, over the
    /// files it serves: the fraction of served *bytes* with a local block
    /// replica (§4.1 — "the percentage of data that is locally accessible
    /// at each node"). Block granular: a file written elsewhere may still
    /// be partially local. An empty file set has locality 1.0.
    pub fn locality_index(&self, node: DataNodeId, served: &[(DfsFileId, u64)]) -> f64 {
        let mut total = 0u64;
        let mut local = 0.0f64;
        for (id, size) in served {
            total += size;
            if let Some(meta) = self.files.get(id) {
                if meta.size_bytes > 0 {
                    local += *size as f64 * meta.local_bytes(node) as f64 / meta.size_bytes as f64;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            local / total as f64
        }
    }

    /// Batched [`Namenode::locality_index`]: one result per query, in query
    /// order. Queries borrow their file manifests, so the per-tick caller
    /// (the locality accounting in `cluster::sim`) clones no file list just
    /// to ask about it.
    pub fn locality_indices(&self, queries: &[(DataNodeId, &[(DfsFileId, u64)])]) -> Vec<f64> {
        queries.iter().map(|(node, served)| self.locality_index(*node, served)).collect()
    }

    /// Bytes physically stored on a DataNode (all block replicas).
    pub fn node_bytes(&self, node: DataNodeId) -> u64 {
        self.files.values().map(|m| m.local_bytes(node)).sum()
    }

    /// Number of files tracked.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Decommissions a DataNode, re-replicating every block it held onto
    /// nodes that lack a replica of that block. Returns the number of
    /// bytes that had to move (the re-replication traffic).
    pub fn remove_datanode(&mut self, node: DataNodeId) -> Result<u64, DfsError> {
        if !self.nodes.remove(&node) {
            return Err(DfsError::UnknownDataNode(node));
        }
        self.telemetry.gauge_set("dfs_datanodes", &[], self.nodes.len() as f64);
        let mut moved = 0u64;
        let live: Vec<DataNodeId> = self.nodes.iter().copied().collect();
        for meta in self.files.values_mut() {
            for block in &mut meta.blocks {
                if !block.replicas.remove(&node) {
                    continue;
                }
                let mut candidates: Vec<DataNodeId> =
                    live.iter().copied().filter(|n| !block.replicas.contains(n)).collect();
                if candidates.is_empty() {
                    if block.replicas.is_empty() {
                        return Err(DfsError::NoReplicaTarget);
                    }
                    continue; // under-replicated but still available
                }
                self.rng.shuffle(&mut candidates);
                block.replicas.insert(candidates[0]);
                moved += block.size_bytes;
            }
        }
        self.telemetry.counter_add("dfs_rereplicated_bytes_total", &[], moved);
        Ok(moved)
    }

    /// Records an *unplanned* datanode loss (crash, disk failure). Unlike
    /// [`Namenode::remove_datanode`] nothing is re-replicated here: every
    /// block the node held becomes under-replicated and is queued for lazy
    /// repair via [`Namenode::rereplicate_step`], modelling the recovery
    /// lag of HDFS's background re-replication. Returns the bytes queued.
    pub fn fail_datanode(&mut self, node: DataNodeId) -> Result<u64, DfsError> {
        if !self.nodes.remove(&node) {
            return Err(DfsError::UnknownDataNode(node));
        }
        self.telemetry.gauge_set("dfs_datanodes", &[], self.nodes.len() as f64);
        let mut queued = 0u64;
        let mut lost_blocks = 0u64;
        for (id, meta) in &mut self.files {
            for (idx, block) in meta.blocks.iter_mut().enumerate() {
                if !block.replicas.remove(&node) {
                    continue;
                }
                if block.replicas.is_empty() {
                    // All replicas gone: the block is lost, not repairable.
                    lost_blocks += 1;
                    continue;
                }
                self.pending_rerep.push_back((*id, idx, block.size_bytes));
                queued += block.size_bytes;
            }
        }
        self.under_replicated += queued;
        self.telemetry.counter_add("dfs_datanode_failures_total", &[], 1);
        if lost_blocks > 0 {
            self.telemetry.counter_add("dfs_blocks_lost_total", &[], lost_blocks);
        }
        self.telemetry.gauge_set("dfs_under_replicated_bytes", &[], self.under_replicated as f64);
        Ok(queued)
    }

    /// Drains up to `budget_bytes` of the pending-repair queue (plus any
    /// credit carried from earlier calls whose budget was smaller than one
    /// block). Blocks are repaired atomically onto a random live node that
    /// lacks a replica. Returns the bytes re-replicated this call.
    pub fn rereplicate_step(&mut self, budget_bytes: u64) -> u64 {
        if self.pending_rerep.is_empty() {
            self.rerep_credit = 0;
            return 0;
        }
        self.rerep_credit = self.rerep_credit.saturating_add(budget_bytes);
        let mut moved = 0u64;
        while let Some(&(id, idx, size)) = self.pending_rerep.front() {
            if size > self.rerep_credit {
                break;
            }
            self.pending_rerep.pop_front();
            self.under_replicated = self.under_replicated.saturating_sub(size);
            let Some(meta) = self.files.get_mut(&id) else { continue }; // deleted meanwhile
            let Some(block) = meta.blocks.get_mut(idx) else { continue };
            if block.replicas.is_empty() || block.replicas.len() >= self.replication {
                continue; // lost, or repaired by a later decommission pass
            }
            let mut candidates: Vec<DataNodeId> =
                self.nodes.iter().copied().filter(|n| !block.replicas.contains(n)).collect();
            if candidates.is_empty() {
                continue; // nowhere to put it; stays single-replica
            }
            self.rng.shuffle(&mut candidates);
            block.replicas.insert(candidates[0]);
            self.rerep_credit -= size;
            moved += size;
        }
        if self.pending_rerep.is_empty() {
            self.rerep_credit = 0;
        }
        if moved > 0 {
            self.telemetry.counter_add("dfs_rereplicated_bytes_total", &[], moved);
            self.telemetry.gauge_set(
                "dfs_under_replicated_bytes",
                &[],
                self.under_replicated as f64,
            );
        }
        moved
    }

    /// Bytes currently waiting for background re-replication.
    pub fn under_replicated_bytes(&self) -> u64 {
        self.under_replicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nn(replication: usize, nodes: u64) -> Namenode {
        let mut n = Namenode::new(replication, SimRng::new(42));
        for i in 0..nodes {
            n.add_datanode(DataNodeId(i));
        }
        n
    }

    #[test]
    fn writer_always_gets_first_replica() {
        let mut n = nn(2, 5);
        for i in 0..20 {
            let reps = n.create_file(DfsFileId(i), 100, DataNodeId(3)).unwrap();
            assert!(reps.contains(&DataNodeId(3)), "writer missing from {reps:?}");
            assert_eq!(reps.len(), 2);
        }
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let mut n = nn(3, 2);
        let reps = n.create_file(DfsFileId(1), 100, DataNodeId(0)).unwrap();
        assert_eq!(reps.len(), 2, "cannot exceed node count");
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let mut n = nn(2, 3);
        n.create_file(DfsFileId(1), 100, DataNodeId(0)).unwrap();
        assert_eq!(
            n.create_file(DfsFileId(1), 100, DataNodeId(0)),
            Err(DfsError::DuplicateFile(DfsFileId(1)))
        );
        assert_eq!(
            n.create_file(DfsFileId(2), 100, DataNodeId(99)),
            Err(DfsError::UnknownDataNode(DataNodeId(99)))
        );
        assert_eq!(n.replicas(DfsFileId(9)), Err(DfsError::UnknownFile(DfsFileId(9))));
    }

    #[test]
    fn locality_index_is_byte_weighted() {
        let mut n = nn(1, 3); // single replica → only the writer is local
        n.create_file(DfsFileId(1), 900, DataNodeId(0)).unwrap();
        n.create_file(DfsFileId(2), 100, DataNodeId(1)).unwrap();
        let served = vec![(DfsFileId(1), 900), (DfsFileId(2), 100)];
        assert!((n.locality_index(DataNodeId(0), &served) - 0.9).abs() < 1e-12);
        assert!((n.locality_index(DataNodeId(1), &served) - 0.1).abs() < 1e-12);
        assert_eq!(n.locality_index(DataNodeId(2), &served), 0.0);
        assert_eq!(n.locality_index(DataNodeId(2), &[]), 1.0);
    }

    #[test]
    fn batched_locality_matches_single_queries() {
        let mut n = nn(2, 8);
        for f in 0..32u64 {
            n.create_file(DfsFileId(f), 100 + f * 37, DataNodeId(f % 8)).unwrap();
        }
        let manifests: Vec<(DataNodeId, Vec<(DfsFileId, u64)>)> = (0..8u64)
            .map(|d| {
                let served: Vec<(DfsFileId, u64)> = (0..32u64)
                    .filter(|f| f % 3 != d % 3)
                    .map(|f| (DfsFileId(f), 100 + f * 37))
                    .collect();
                (DataNodeId(d), served)
            })
            .collect();
        let queries: Vec<(DataNodeId, &[(DfsFileId, u64)])> =
            manifests.iter().map(|(d, s)| (*d, s.as_slice())).collect();
        let expected: Vec<f64> = manifests.iter().map(|(d, s)| n.locality_index(*d, s)).collect();
        assert_eq!(n.locality_indices(&queries), expected);
    }

    #[test]
    fn moved_region_loses_locality_until_rewrite() {
        let mut n = nn(2, 5);
        // Region's file written on node 0 (plus one random replica).
        n.create_file(DfsFileId(1), 1_000, DataNodeId(0)).unwrap();
        let served = vec![(DfsFileId(1), 1_000)];
        assert_eq!(n.locality_index(DataNodeId(0), &served), 1.0);
        // Probability the random second replica landed on a specific other
        // node is 1/4; find a node with no replica to model the move target.
        let victim = (1..5)
            .map(DataNodeId)
            .find(|d| !n.is_local(DfsFileId(1), *d).unwrap())
            .expect("some node lacks a replica");
        assert_eq!(n.locality_index(victim, &served), 0.0);
        // Major compact: rewrite locally under a new id, delete the old.
        n.create_file(DfsFileId(2), 1_000, victim).unwrap();
        n.delete_file(DfsFileId(1)).unwrap();
        assert_eq!(n.locality_index(victim, &[(DfsFileId(2), 1_000)]), 1.0);
    }

    #[test]
    fn node_bytes_counts_all_replicas() {
        let mut n = nn(2, 2);
        n.create_file(DfsFileId(1), 500, DataNodeId(0)).unwrap();
        // With 2 nodes and rf=2 both nodes hold every file.
        assert_eq!(n.node_bytes(DataNodeId(0)), 500);
        assert_eq!(n.node_bytes(DataNodeId(1)), 500);
    }

    #[test]
    fn decommission_rereplicates() {
        let mut n = nn(2, 4);
        for i in 0..10 {
            n.create_file(DfsFileId(i), 100, DataNodeId(0)).unwrap();
        }
        let moved = n.remove_datanode(DataNodeId(0)).unwrap();
        assert!(moved >= 1_000, "all node-0 primaries must move, moved={moved}");
        for i in 0..10 {
            let reps = n.replicas(DfsFileId(i)).unwrap();
            assert_eq!(reps.len(), 2, "file {i} under-replicated: {reps:?}");
            assert!(!reps.contains(&DataNodeId(0)));
        }
    }

    #[test]
    fn decommission_last_node_fails() {
        let mut n = nn(1, 1);
        n.create_file(DfsFileId(1), 100, DataNodeId(0)).unwrap();
        assert_eq!(n.remove_datanode(DataNodeId(0)), Err(DfsError::NoReplicaTarget));
    }

    #[test]
    fn large_files_split_into_blocks_with_partial_locality() {
        let mut n = nn(2, 4);
        // 5 blocks' worth of data.
        let size = 5 * DFS_BLOCK_BYTES;
        n.create_file(DfsFileId(1), size, DataNodeId(0)).unwrap();
        // Fully local at the writer.
        assert_eq!(n.local_fraction(DfsFileId(1), DataNodeId(0)).unwrap(), 1.0);
        assert!(n.is_local(DfsFileId(1), DataNodeId(0)).unwrap());
        // Secondary replicas scatter per block: some other node usually
        // holds a strict subset of blocks → fractional locality.
        let fractions: Vec<f64> =
            (1..4).map(|d| n.local_fraction(DfsFileId(1), DataNodeId(d)).unwrap()).collect();
        let total: f64 = fractions.iter().sum();
        // rf=2 → exactly one extra replica per block: fractions sum to 1.
        assert!((total - 1.0).abs() < 1e-9, "fractions {fractions:?}");
        assert!(
            fractions.iter().any(|f| *f > 0.0 && *f < 1.0),
            "expected partial locality somewhere: {fractions:?}"
        );
    }

    #[test]
    fn decommission_restores_block_level_replication() {
        let mut n = nn(2, 4);
        n.create_file(DfsFileId(1), 3 * DFS_BLOCK_BYTES, DataNodeId(0)).unwrap();
        let moved = n.remove_datanode(DataNodeId(0)).unwrap();
        assert!(moved >= 3 * DFS_BLOCK_BYTES, "all primaries re-replicate: {moved}");
        // Every block still has two replicas, spread over live nodes.
        let reps = n.replicas(DfsFileId(1)).unwrap();
        assert!(!reps.contains(&DataNodeId(0)));
        // Byte conservation: rf × size across live nodes.
        let stored: u64 = (1..4).map(|d| n.node_bytes(DataNodeId(d))).sum();
        assert_eq!(stored, 2 * 3 * DFS_BLOCK_BYTES);
    }

    #[test]
    fn decommission_unknown_node_fails() {
        let mut n = nn(2, 2);
        assert_eq!(n.remove_datanode(DataNodeId(9)), Err(DfsError::UnknownDataNode(DataNodeId(9))));
    }

    #[test]
    fn failed_datanode_leaves_blocks_under_replicated_until_repair() {
        let mut n = nn(2, 4);
        n.create_file(DfsFileId(1), 3 * DFS_BLOCK_BYTES, DataNodeId(0)).unwrap();
        let queued = n.fail_datanode(DataNodeId(0)).unwrap();
        assert_eq!(queued, 3 * DFS_BLOCK_BYTES, "all writer-local blocks queued");
        assert_eq!(n.under_replicated_bytes(), queued);
        // Nothing was repaired yet: each block has a single surviving replica.
        let reps = n.replicas(DfsFileId(1)).unwrap();
        assert!(!reps.contains(&DataNodeId(0)));
        let stored: u64 = (1..4).map(|d| n.node_bytes(DataNodeId(d))).sum();
        assert_eq!(stored, 3 * DFS_BLOCK_BYTES, "one replica per block survives");

        // Drain with a budget smaller than a block: credit accumulates.
        let half = DFS_BLOCK_BYTES / 2;
        assert_eq!(n.rereplicate_step(half), 0, "half a block of budget repairs nothing");
        assert_eq!(n.rereplicate_step(half), DFS_BLOCK_BYTES, "credit covers one block now");
        assert_eq!(n.under_replicated_bytes(), 2 * DFS_BLOCK_BYTES);
        // A big budget finishes the rest and replication is restored.
        assert_eq!(n.rereplicate_step(10 * DFS_BLOCK_BYTES), 2 * DFS_BLOCK_BYTES);
        assert_eq!(n.under_replicated_bytes(), 0);
        let stored: u64 = (1..4).map(|d| n.node_bytes(DataNodeId(d))).sum();
        assert_eq!(stored, 2 * 3 * DFS_BLOCK_BYTES, "rf=2 restored");
    }

    #[test]
    fn failing_every_replica_holder_loses_the_block() {
        let mut n = nn(1, 2); // rf=1: losing the writer loses the data
        n.create_file(DfsFileId(1), 100, DataNodeId(0)).unwrap();
        let queued = n.fail_datanode(DataNodeId(0)).unwrap();
        assert_eq!(queued, 0, "a lost block cannot be queued for repair");
        assert_eq!(n.rereplicate_step(u64::MAX), 0);
        assert!(n.replicas(DfsFileId(1)).unwrap().is_empty());
    }

    #[test]
    fn repair_skips_files_deleted_while_queued() {
        let mut n = nn(2, 3);
        n.create_file(DfsFileId(1), 100, DataNodeId(0)).unwrap();
        n.fail_datanode(DataNodeId(0)).unwrap();
        n.delete_file(DfsFileId(1)).unwrap();
        assert_eq!(n.rereplicate_step(u64::MAX), 0, "deleted file needs no repair");
        assert_eq!(n.under_replicated_bytes(), 0);
    }
}
