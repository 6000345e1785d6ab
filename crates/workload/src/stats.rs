//! Execution-trace statistics: what a trace demands from a platform before
//! any simulation — useful for sanity-checking generated workloads and for
//! first-order compute:communication-ratio analysis.

use astra_des::DataSize;
use serde::{Deserialize, Serialize};

use crate::trace::{EtOp, ExecutionTrace, TensorLocation};

/// Aggregate demands of one execution trace.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Node counts per operation class: `[compute, memory, collective, p2p]`.
    pub node_counts: [usize; 4],
    /// Total floating-point operations across all NPUs.
    pub total_flops: f64,
    /// Total collective payload bytes (per-NPU sizes summed over members).
    pub collective_bytes: DataSize,
    /// Total peer-to-peer bytes.
    pub p2p_bytes: DataSize,
    /// Total local-memory bytes.
    pub local_bytes: DataSize,
    /// Total remote-memory bytes (plain + gathered requests).
    pub remote_bytes: DataSize,
    /// Largest single collective payload in the trace.
    pub max_collective: DataSize,
    /// Number of distinct communicator groups.
    pub groups: usize,
    /// Longest dependency chain (critical path length in nodes) over all
    /// NPUs.
    pub critical_path_nodes: usize,
}

impl TraceStats {
    /// Computes statistics for a trace.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_workload::{models, parallelism, Parallelism, TraceStats};
    ///
    /// let trace = parallelism::generate_trace(
    ///     &models::gpt3_175b(), Parallelism::Hybrid { mp: 4 }, 16,
    /// ).unwrap();
    /// let stats = TraceStats::of(&trace);
    /// assert!(stats.total_flops > 0.0);
    /// assert!(stats.critical_path_nodes > 0);
    /// ```
    pub fn of(trace: &ExecutionTrace) -> TraceStats {
        let mut stats = TraceStats {
            groups: trace.groups().len(),
            ..TraceStats::default()
        };
        // Longest chain of each stored program, via DP over its
        // topological order.
        let chains: Vec<usize> = trace
            .classes()
            .iter()
            .map(|program| {
                let mut depth = vec![1usize; program.len()];
                for (idx, node) in program.iter().enumerate() {
                    for dep in &node.deps {
                        depth[idx] = depth[idx].max(depth[dep.0 as usize] + 1);
                    }
                }
                depth.into_iter().max().unwrap_or(0)
            })
            .collect();
        // Sums run NPU by NPU so every float adds in the same order
        // however the programs are stored.
        for npu in 0..trace.npus() {
            let program = trace.program(npu);
            stats.critical_path_nodes = stats.critical_path_nodes.max(chains[trace.class_of(npu)]);
            for node in program {
                match node.op {
                    EtOp::Compute { flops, tensor } => {
                        stats.node_counts[0] += 1;
                        stats.total_flops += flops;
                        stats.local_bytes += tensor;
                    }
                    EtOp::Memory { location, size, .. } => {
                        stats.node_counts[1] += 1;
                        match location {
                            TensorLocation::Local => stats.local_bytes += size,
                            TensorLocation::Remote { .. } => stats.remote_bytes += size,
                        }
                    }
                    EtOp::Collective { size, .. } => {
                        stats.node_counts[2] += 1;
                        stats.collective_bytes += size;
                        stats.max_collective = stats.max_collective.max(size);
                    }
                    EtOp::PeerSend { size, .. } => {
                        stats.node_counts[3] += 1;
                        stats.p2p_bytes += size;
                    }
                    EtOp::PeerRecv { .. } => {
                        stats.node_counts[3] += 1;
                    }
                }
            }
        }
        stats
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.node_counts.iter().sum()
    }

    /// First-order arithmetic intensity of the trace: FLOPs per byte of
    /// communication (collective + p2p). Returns `f64::INFINITY` for
    /// communication-free traces.
    pub fn flops_per_comm_byte(&self) -> f64 {
        let bytes = self.collective_bytes.as_bytes() + self.p2p_bytes.as_bytes();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.total_flops / bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, parallelism, Parallelism};

    #[test]
    fn counts_all_node_classes() {
        let model = models::moe_1t();
        let trace = parallelism::generate_disaggregated_moe(
            &model,
            32,
            &parallelism::OffloadPlan::default(),
        )
        .unwrap();
        let stats = TraceStats::of(&trace);
        assert!(stats.node_counts[0] > 0, "compute nodes");
        assert!(stats.node_counts[1] > 0, "memory nodes");
        assert!(stats.node_counts[2] > 0, "collective nodes");
        assert_eq!(stats.total_nodes(), trace.total_nodes());
        assert!(stats.remote_bytes > DataSize::ZERO);
        assert!(stats.local_bytes > DataSize::ZERO);
    }

    #[test]
    fn critical_path_reflects_dependencies() {
        let model = {
            let mut m = models::gpt3_175b();
            m.layers.truncate(4);
            m
        };
        let trace = parallelism::generate_trace(&model, Parallelism::Data, 4).unwrap();
        let stats = TraceStats::of(&trace);
        // Chain: 4 fwd + 4 bwd at minimum.
        assert!(stats.critical_path_nodes >= 8);
        assert!(stats.critical_path_nodes <= trace.program(0).len());
    }

    #[test]
    fn pipeline_traces_have_p2p_bytes() {
        let model = models::gpt3_175b();
        let trace = parallelism::generate_trace(
            &model,
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 2,
            },
            8,
        )
        .unwrap();
        let stats = TraceStats::of(&trace);
        assert!(stats.p2p_bytes > DataSize::ZERO);
        assert!(stats.node_counts[3] > 0);
    }

    #[test]
    fn fsdp_moves_more_collective_bytes_than_dp_per_npu_shard() {
        let model = {
            let mut m = models::gpt3_175b();
            m.layers.truncate(8);
            m
        };
        let dp =
            TraceStats::of(&parallelism::generate_trace(&model, Parallelism::Data, 8).unwrap());
        let fsdp = TraceStats::of(
            &parallelism::generate_trace(&model, Parallelism::FullyShardedData, 8).unwrap(),
        );
        // FSDP: 2 gathers + 1 scatter of params vs DP's single All-Reduce.
        assert!(fsdp.collective_bytes > dp.collective_bytes);
    }

    #[test]
    fn flops_per_comm_byte_finite_for_training_traces() {
        let trace = parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 8).unwrap();
        let stats = TraceStats::of(&trace);
        assert!(stats.flops_per_comm_byte().is_finite());
        assert!(stats.flops_per_comm_byte() > 0.0);
    }
}
