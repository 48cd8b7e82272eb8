//! Interconnect model: per-node NIC with volume-dependent contention.

/// First-order model of a fat-tree/CLOS interconnect where each node owns a
/// single full-duplex link (Cooley: one FDR InfiniBand 56 Gbps link per
/// node, shared by all ranks on the node — the contention source the paper's
/// §IV-A analysis centers on).
///
/// An `alltoallw` round costs
///
/// ```text
/// T = alpha(P) + max_node max(out_n, in_n) / rate(V_n) + max_node intra_n / mem_bw
/// rate(V)  = link_bandwidth / (1 + V / contention_half_volume)
/// alpha(P) = alpha_base + alpha_per_rank * P
/// ```
///
/// where `out_n`/`in_n` are the bytes node `n` ships to / receives from
/// *other* nodes in the round, `V_n = max(out_n, in_n)`, and `intra_n` is
/// traffic between ranks of the same node (moved through shared memory).
/// The contention term captures the paper's observation that one huge round
/// "creates network contention on the single 56 Gbps link", while many
/// ~32 MB rounds "allow for full utilization of the network bandwidth".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Peak per-node link bandwidth, bytes/s (one direction).
    pub link_bandwidth: f64,
    /// Node-volume (bytes) at which the effective link rate halves.
    pub contention_half_volume: f64,
    /// Fixed software overhead per collective call, seconds.
    pub alpha_base: f64,
    /// Additional overhead per participating rank (alltoallw builds one
    /// datatype/message slot per peer), seconds.
    pub alpha_per_rank: f64,
    /// Intra-node (shared-memory) copy bandwidth, bytes/s per node.
    pub mem_bandwidth: f64,
}

impl NetModel {
    /// Effective per-link rate when a node moves `volume` bytes in one round.
    pub fn effective_rate(&self, volume: f64) -> f64 {
        self.link_bandwidth / (1.0 + volume / self.contention_half_volume)
    }

    /// Collective software overhead for `nprocs` participants.
    pub fn alpha(&self, nprocs: usize) -> f64 {
        self.alpha_base + self.alpha_per_rank * nprocs as f64
    }

    /// Time for one `alltoallw` round given the exact rank-pair byte matrix
    /// (`pair_bytes[s * nprocs + d]`, diagonal zero) and a rank→node map.
    pub fn alltoallw_round_time(
        &self,
        nprocs: usize,
        pair_bytes: &[u64],
        node_of: &[usize],
    ) -> f64 {
        assert_eq!(pair_bytes.len(), nprocs * nprocs, "pair matrix must be nprocs^2");
        assert_eq!(node_of.len(), nprocs, "node map must cover all ranks");
        let nnodes = node_of.iter().copied().max().map_or(1, |m| m + 1);
        let mut out = vec![0f64; nnodes];
        let mut inn = vec![0f64; nnodes];
        let mut intra = vec![0f64; nnodes];
        for s in 0..nprocs {
            for d in 0..nprocs {
                let b = pair_bytes[s * nprocs + d] as f64;
                if b == 0.0 {
                    continue;
                }
                if node_of[s] == node_of[d] {
                    intra[node_of[s]] += b;
                } else {
                    out[node_of[s]] += b;
                    inn[node_of[d]] += b;
                }
            }
        }
        let mut link_time = 0f64;
        for n in 0..nnodes {
            let v = out[n].max(inn[n]);
            if v > 0.0 {
                link_time = link_time.max(v / self.effective_rate(v));
            }
        }
        let mem_time = intra.iter().map(|&v| v / self.mem_bandwidth).fold(0f64, f64::max);
        self.alpha(nprocs) + link_time + mem_time
    }

    /// Time for a whole redistribution: the sum of its rounds' times, in
    /// round order, each round a pair-byte matrix as in
    /// [`NetModel::alltoallw_round_time`].
    pub fn redistribution_time(
        &self,
        nprocs: usize,
        rounds: impl IntoIterator<Item = impl AsRef<[u64]>>,
        node_of: &[usize],
    ) -> f64 {
        rounds.into_iter().map(|m| self.alltoallw_round_time(nprocs, m.as_ref(), node_of)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetModel {
        NetModel {
            link_bandwidth: 7e9,
            contention_half_volume: 20e9,
            alpha_base: 0.010,
            alpha_per_rank: 0.001,
            mem_bandwidth: 30e9,
        }
    }

    #[test]
    fn effective_rate_halves_at_half_volume() {
        let n = net();
        assert!((n.effective_rate(20e9) - 3.5e9).abs() < 1.0);
        assert!(n.effective_rate(0.0) >= 7e9 - 1.0);
    }

    #[test]
    fn alpha_grows_linearly_with_ranks() {
        let n = net();
        assert!((n.alpha(2) - 0.012).abs() < 1e-12);
        assert!((n.alpha(256) - 0.266).abs() < 1e-12);
    }

    #[test]
    fn intra_node_traffic_avoids_the_link() {
        let n = net();
        // 2 ranks, same node, 1 GB exchanged: only memory time + alpha.
        let pair = vec![0, 1_000_000_000, 1_000_000_000, 0];
        let t_same = n.alltoallw_round_time(2, &pair, &[0, 0]);
        let t_diff = n.alltoallw_round_time(2, &pair, &[0, 1]);
        assert!(t_same < t_diff);
        let expected_mem = 2e9 / 30e9 + n.alpha(2);
        assert!((t_same - expected_mem).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_node_dominates() {
        let n = net();
        // Rank 0 on node 0 sends 1 GB to each of ranks 1, 2 (nodes 1, 2):
        // node 0's outgoing 2 GB is the bottleneck.
        let mut pair = vec![0u64; 9];
        pair[1] = 1_000_000_000;
        pair[2] = 1_000_000_000;
        let t = n.alltoallw_round_time(3, &pair, &[0, 1, 2]);
        let v = 2e9;
        assert!((t - (n.alpha(3) + v / n.effective_rate(v))).abs() < 1e-9);
    }

    #[test]
    fn big_single_round_slower_than_many_small_rounds_per_byte() {
        // The contention effect: the same volume in one round is slower (per
        // byte) than split over many rounds, until alpha dominates.
        let n = net();
        let one_round = vec![0, 40_000_000_000u64, 0, 0];
        let t_one = n.alltoallw_round_time(2, &one_round, &[0, 1]);
        let small = vec![0, 400_000_000u64, 0, 0];
        let t_hundred: f64 = (0..100).map(|_| n.alltoallw_round_time(2, &small, &[0, 1])).sum();
        assert!(t_hundred < t_one, "{t_hundred} vs {t_one}");
    }

    #[test]
    fn redistribution_time_sums_rounds() {
        let n = net();
        let r1 = vec![0, 1_000u64, 0, 0];
        let r2 = vec![0, 0, 2_000u64, 0];
        let total = n.redistribution_time(2, [r1.as_slice(), r2.as_slice()], &[0, 1]);
        let t1 = n.alltoallw_round_time(2, &r1, &[0, 1]);
        let t2 = n.alltoallw_round_time(2, &r2, &[0, 1]);
        assert!((total - (t1 + t2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn wrong_matrix_size_panics() {
        net().alltoallw_round_time(3, &[0; 4], &[0, 0, 0]);
    }
}
