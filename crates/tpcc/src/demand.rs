//! Deploying TPC-C onto the cluster simulation.
//!
//! TPC-C tables partition horizontally by warehouse (§6.3: "5 warehouses
//! per RegionServer"). For the simulation we group each warehouse slice's
//! tables into two partitions with very different access patterns — which
//! is precisely the heterogeneity MeT exploits without being told anything
//! about TPC-C:
//!
//! * a **stock/orders** partition (STOCK, ORDERS, ORDER-LINE, NEW-ORDER,
//!   HISTORY): insert- and update-heavy, scanned by Delivery/StockLevel;
//! * a **customer** partition (CUSTOMER, DISTRICT, WAREHOUSE): mixed
//!   read/write;
//!
//! plus the global read-only **ITEM** partitions.
//!
//! The per-kind op weights below are derived from the transactions'
//! storage footprints under the standard mix (45/43/4/4/4), yielding the
//! 8 % read-only / 92 % update profile the paper quotes.

use crate::schema::TpccScale;
use crate::txn::TxnKind;
use cluster::{ClientGroup, OpMix, PartitionId, PartitionSpec, SimCluster};

/// Storage-operation footprint of one transaction kind:
/// `(r_item, r_stock, r_cust, w_stock, w_orders, w_cust, s_orders)` —
/// reads against ITEM / STOCK / the customer group (CUSTOMER, DISTRICT,
/// WAREHOUSE), writes against STOCK / the orders group (ORDERS,
/// ORDER-LINE, NEW-ORDER, HISTORY) / the customer group, and scans against
/// the orders group. Counts match [`crate::txn`]'s implementations.
pub fn footprint(kind: TxnKind) -> (f64, f64, f64, f64, f64, f64, f64) {
    match kind {
        TxnKind::NewOrder => (10.0, 10.0, 3.0, 10.0, 23.0, 1.0, 0.0),
        TxnKind::Payment => (0.0, 0.0, 3.0, 0.0, 1.0, 3.0, 0.0),
        TxnKind::OrderStatus => (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0),
        TxnKind::Delivery => (0.0, 0.0, 10.0, 0.0, 20.0, 10.0, 20.0),
        TxnKind::StockLevel => (0.0, 20.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    }
}

/// Mix-weighted storage ops per client transaction, same component order
/// as [`footprint`].
pub fn weighted_footprint() -> (f64, f64, f64, f64, f64, f64, f64) {
    let mut acc = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (kind, w) in TxnKind::mix() {
        let f = footprint(kind);
        acc.0 += w * f.0;
        acc.1 += w * f.1;
        acc.2 += w * f.2;
        acc.3 += w * f.3;
        acc.4 += w * f.4;
        acc.5 += w * f.5;
        acc.6 += w * f.6;
    }
    acc
}

/// A deployed TPC-C database in the simulation.
#[derive(Debug, Clone)]
pub struct TpccDeployment {
    /// Scale deployed.
    pub scale: TpccScale,
    /// Global read-only ITEM partitions.
    pub item_partitions: Vec<PartitionId>,
    /// Per-slice `(stock_a, stock_b, orders, customer)` partitions —
    /// STOCK is pre-split in two, mirroring its region count (it is the
    /// largest table), which is what makes MeT's partition-count-
    /// proportional grouping allocate the read/write group its fair share
    /// of nodes.
    pub slices: Vec<(PartitionId, PartitionId, PartitionId, PartitionId)>,
}

impl TpccDeployment {
    /// The closed-loop terminal pool (the paper runs 300 clients, §6.3).
    pub fn client_group(&self, clients: f64, think_ms: f64) -> ClientGroup {
        let (r_item, r_stock, r_cust, w_stock, w_orders, w_cust, s_orders) = weighted_footprint();
        let reads = r_item + r_stock + r_cust;
        let writes = w_stock + w_orders + w_cust;
        let scans = s_orders;
        let n_slices = self.slices.len() as f64;
        let n_items = self.item_partitions.len() as f64;

        let mut read_weights = Vec::new();
        for p in &self.item_partitions {
            read_weights.push((*p, r_item / reads / n_items));
        }
        for (stock_a, stock_b, _orders, cust) in &self.slices {
            read_weights.push((*stock_a, r_stock / reads / n_slices / 2.0));
            read_weights.push((*stock_b, r_stock / reads / n_slices / 2.0));
            read_weights.push((*cust, r_cust / reads / n_slices));
        }
        let mut write_weights = Vec::new();
        for (stock_a, stock_b, orders, cust) in &self.slices {
            write_weights.push((*stock_a, w_stock / writes / n_slices / 2.0));
            write_weights.push((*stock_b, w_stock / writes / n_slices / 2.0));
            write_weights.push((*orders, w_orders / writes / n_slices));
            write_weights.push((*cust, w_cust / writes / n_slices));
        }
        let scan_weights: Vec<(PartitionId, f64)> =
            self.slices.iter().map(|(_, _, orders, _)| (*orders, 1.0 / n_slices)).collect();
        // Only the orders group grows: ORDERS/ORDER-LINE/NEW-ORDER/HISTORY
        // are inserts; STOCK and CUSTOMER are updated in place.
        let insert_weights = scan_weights.clone();

        ClientGroup {
            name: "tpcc".into(),
            threads: clients,
            think_ms,
            target_rate: None,
            mix: OpMix::new(reads, writes, scans),
            read_weights,
            write_weights,
            scan_weights,
            scan_rows: 10.0,
            // Orders, order lines, new-orders and history are inserts:
            // 13.3 of the 18.4 writes per transaction.
            insert_fraction: 0.72,
            insert_weights,
            // The PyTPCC HBase driver buffers a transaction's mutations
            // into batched RPCs.
            write_cpu_factor: 0.2,
            active: true,
        }
    }
}

/// Per-slice stored-byte estimates `(stock, orders, customer)`, including
/// the HBase cell overhead (see [`TpccScale::approx_bytes`]).
fn slice_bytes(scale: &TpccScale, warehouses_in_slice: u32) -> (f64, f64, f64) {
    let w = warehouses_in_slice as u64;
    let d = w * scale.districts_per_warehouse as u64;
    let c = d * scale.customers_per_district as u64;
    let o = d * scale.initial_orders_per_district as u64;
    let ovh = TpccScale::HBASE_CELL_OVERHEAD;
    let stock = (w * scale.items as u64 * 306 * ovh) as f64;
    let orders = ((o * 24 + o * 10 * 54 + o * 20) * ovh) as f64;
    let customer = ((c * 655 + d * 95 + w * 89) * ovh) as f64;
    (stock, orders, customer)
}

/// Creates the TPC-C partitions (unassigned) for `n_slices` warehouse
/// groups.
pub fn deploy(scale: &TpccScale, n_slices: u32, sim: &mut SimCluster) -> TpccDeployment {
    assert!(n_slices >= 1 && n_slices <= scale.warehouses);
    let item_bytes = (scale.items as u64 * 82 * TpccScale::HBASE_CELL_OVERHEAD) as f64;
    let item_partitions = (0..4)
        .map(|_| {
            sim.create_partition(PartitionSpec {
                table: "item".into(),
                size_bytes: item_bytes / 4.0,
                record_bytes: 82.0,
                // The whole catalog is uniformly popular and tiny: fully
                // cacheable.
                hot_set_fraction: 1.0,
                hot_ops_fraction: 1.0,
            })
        })
        .collect();
    let per_slice = scale.warehouses / n_slices;
    let (stock_bytes, orders_bytes, cust_bytes) = slice_bytes(scale, per_slice.max(1));
    let slices = (0..n_slices)
        .map(|_| {
            let mk_stock = |sim: &mut SimCluster| {
                sim.create_partition(PartitionSpec {
                    table: "stock".into(),
                    size_bytes: stock_bytes / 2.0,
                    record_bytes: 306.0 * TpccScale::HBASE_CELL_OVERHEAD as f64,
                    // TPC-C picks items with NURand(8191): the biased OR
                    // concentrates most touches on a modest slice of the
                    // catalog, and read-update stock rows ride the memstore.
                    hot_set_fraction: 0.15,
                    hot_ops_fraction: 0.85,
                })
            };
            let stock_a = mk_stock(sim);
            let stock_b = mk_stock(sim);
            let orders = sim.create_partition(PartitionSpec {
                table: "orders".into(),
                size_bytes: orders_bytes,
                record_bytes: 120.0,
                // Only the recent tail of orders is ever scanned.
                hot_set_fraction: 0.1,
                hot_ops_fraction: 0.9,
            });
            let cust = sim.create_partition(PartitionSpec {
                table: "customer".into(),
                size_bytes: cust_bytes,
                record_bytes: 655.0,
                // Customers are picked with NURand(1023) out of 3 000.
                hot_set_fraction: 0.33,
                hot_ops_fraction: 0.70,
            });
            (stock_a, stock_b, orders, cust)
        })
        .collect();
    TpccDeployment { scale: *scale, item_partitions, slices }
}

/// Converts a transaction rate (client requests/s) into the tpmC metric
/// (NewOrder transactions per minute).
pub fn tpmc_from_txn_rate(txns_per_sec: f64) -> f64 {
    txns_per_sec * 0.45 * 60.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::CostParams;

    #[test]
    fn footprint_matches_paper_update_share() {
        // §6.3: 8 % read-only, 92 % update transactions.
        let read_only: f64 = TxnKind::mix()
            .iter()
            .filter(|(k, _)| matches!(k, TxnKind::OrderStatus | TxnKind::StockLevel))
            .map(|(_, w)| w)
            .sum();
        assert!((read_only - 0.08).abs() < 1e-9);
    }

    #[test]
    fn weighted_footprint_is_write_heavy() {
        let (ri, rs, rc, ws, wo, wc, so) = weighted_footprint();
        let reads = ri + rs + rc;
        let writes = ws + wo + wc;
        assert!(writes > reads, "TPC-C must be write-intensive: r={reads} w={writes}");
        assert!(so > 0.0 && so < 2.0);
    }

    #[test]
    fn deploy_builds_weights_that_sum_to_one() {
        let mut sim = SimCluster::new(CostParams::default(), 1);
        let d = deploy(&TpccScale::paper(), 6, &mut sim);
        assert_eq!(d.slices.len(), 6);
        assert_eq!(d.item_partitions.len(), 4);
        let g = d.client_group(300.0, 5.0);
        for (name, ws) in
            [("read", &g.read_weights), ("write", &g.write_weights), ("scan", &g.scan_weights)]
        {
            let sum: f64 = ws.iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name} weights sum {sum}");
        }
        // Writes avoid the read-only item partitions entirely.
        for p in &d.item_partitions {
            assert!(!g.write_weights.iter().any(|(q, _)| q == p));
        }
        // Scans land only on the orders partitions.
        for (_, _, orders, _) in &d.slices {
            assert!(g.scan_weights.iter().any(|(q, _)| q == orders));
        }
    }

    #[test]
    fn paper_deployment_size_is_plausible() {
        let mut sim = SimCluster::new(CostParams::default(), 2);
        let d = deploy(&TpccScale::paper(), 6, &mut sim);
        let snap_total: f64 = {
            use cluster::ElasticCluster;
            sim.snapshot().partitions.iter().map(|p| p.size_bytes as f64).sum()
        };
        let _ = d;
        assert!(
            (8e9..20e9).contains(&snap_total),
            "deployed bytes {snap_total:.2e} should be near the paper's 15 GB"
        );
    }

    #[test]
    fn tpmc_conversion() {
        // 940 transactions/s ≈ 25 380 tpmC (the paper's baseline).
        let tpmc = tpmc_from_txn_rate(940.0);
        assert!((tpmc - 25_380.0).abs() < 1.0);
    }
}
