//! Table scan with SMA block pruning and filter-first block reads.

use crate::column::{Batch, ColumnVector};
use crate::error::Result;
use crate::exec::physical::Operator;
use crate::expr::{BinaryOp, Expr};
use crate::plan::logical::PrunePredicate;
use crate::storage::{Partition, Table};
use crate::types::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Scans a table block by block. Blocks whose min/max SMA proves the
/// pruning predicates can never match are skipped without being read — the
/// paper's Sec. 4.4 optimization ("applying the filter before joining ...
/// enabling block pruning of the model table").
///
/// When the scan also carries the filter that sits directly above it
/// ([`ScanExec::filter_first`]), every block that survives the SMA check
/// is read filter-first: only the filter's columns are loaded, the filter
/// is evaluated on them, and a block in which no row passes is skipped
/// before its other columns are loaded. SMAs cannot prune shuffled keys (a
/// block's min/max spans nearly the whole domain); this check still can.
/// A block with a passing row is emitted whole and unfiltered, so the
/// `FilterExec` above still decides which rows survive and results are
/// unchanged.
pub struct ScanExec {
    table: Arc<Table>,
    pruning: Vec<PrunePredicate>,
    filter: Option<BlockFilter>,
    /// Restrict to one partition (parallel workers) or scan all.
    partition: Option<usize>,
    /// Restrict to a `[start, end)` block range within each scanned
    /// partition — the sub-partition morsel unit the unified scheduler
    /// steals, so one skewed partition can be balanced across workers.
    blocks: Option<(usize, usize)>,
    /// Per-partition block counts captured at construction: the scan's
    /// snapshot. Blocks are immutable and append-only, so bounding the
    /// cursor by these counts pins a consistent prefix of the table —
    /// concurrent appends (and their WAL/page traffic in persistent
    /// mode) are invisible to an in-flight scan.
    snapshot: Vec<usize>,
    /// (partition, block) cursor.
    cursor: (usize, usize),
    /// Statistics: blocks skipped by SMA pruning.
    pub blocks_pruned: usize,
    /// Statistics: blocks skipped by the filter-first check.
    pub blocks_skipped: usize,
    /// Statistics: blocks read whole and emitted.
    pub blocks_read: usize,
}

/// The filter above a scan, renumbered onto the columns it reads.
struct BlockFilter {
    /// Table columns the predicate references, ascending.
    columns: Vec<usize>,
    /// The predicate with column `columns[i]` renumbered to `i`.
    predicate: Expr,
}

/// Rows of a block the filter-first check tries before the whole block.
const PROBE_ROWS: usize = 32;

impl BlockFilter {
    /// Whether some row of `block` (the filter's columns) passes. A short
    /// prefix is tried first, so a filter most rows pass costs a fraction
    /// of a second evaluation; only a block whose prefix passes nothing
    /// is evaluated whole. An error in the prefix keeps the block, so the
    /// `FilterExec` raises its own error on it; an error over the whole
    /// block is the one the `FilterExec` would raise.
    fn passes_any(&self, block: &Batch) -> Result<bool> {
        let any = |batch: &Batch| -> Result<bool> {
            Ok(self.predicate.eval(batch)?.as_bool()?.contains(&true))
        };
        if block.num_rows() > PROBE_ROWS && any(&block.slice(0, PROBE_ROWS)).unwrap_or(true) {
            return Ok(true);
        }
        any(block)
    }
}

impl ScanExec {
    pub fn new(
        table: Arc<Table>,
        pruning: Vec<PrunePredicate>,
        partition: Option<usize>,
    ) -> ScanExec {
        ScanExec::with_blocks(table, pruning, partition, None)
    }

    /// A scan additionally restricted to a block range — used by morsel
    /// execution to split one partition across several tasks.
    pub fn with_blocks(
        table: Arc<Table>,
        pruning: Vec<PrunePredicate>,
        partition: Option<usize>,
        blocks: Option<(usize, usize)>,
    ) -> ScanExec {
        let start_p = partition.unwrap_or(0);
        let start_b = blocks.map_or(0, |(s, _)| s);
        let snapshot = table.snapshot();
        ScanExec {
            table,
            pruning,
            filter: None,
            partition,
            blocks,
            snapshot,
            cursor: (start_p, start_b),
            blocks_pruned: 0,
            blocks_skipped: 0,
            blocks_read: 0,
        }
    }

    /// Read blocks filter-first under `predicate`, the predicate of the
    /// filter directly above this scan (over the table's columns). A
    /// predicate that reads no column, or every column, is ignored: the
    /// check would then save no column load.
    pub fn filter_first(mut self, predicate: &Expr) -> ScanExec {
        let columns: Vec<usize> = predicate.columns().into_iter().collect();
        if columns.is_empty() || columns.len() == self.table.schema().len() {
            return self;
        }
        let predicate = predicate.map_columns(&|c| {
            columns.binary_search(&c).expect("the predicate references its own columns")
        });
        self.filter = Some(BlockFilter { columns, predicate });
        self
    }

    fn block_survives(&self, min: &Value, max: &Value, pred: &PrunePredicate) -> bool {
        let v = &pred.value;
        match pred.op {
            // Some value in [min, max] can equal v.
            BinaryOp::Eq => {
                min.total_cmp(v) != Ordering::Greater && max.total_cmp(v) != Ordering::Less
            }
            BinaryOp::Lt => min.total_cmp(v) == Ordering::Less,
            BinaryOp::LtEq => min.total_cmp(v) != Ordering::Greater,
            BinaryOp::Gt => max.total_cmp(v) == Ordering::Greater,
            BinaryOp::GtEq => max.total_cmp(v) != Ordering::Less,
            // Non-range operators never prune.
            _ => true,
        }
    }

    /// Block `b` of `part` as a batch, or `None` when the filter-first
    /// check finds no row that passes. The check's columns are reused in
    /// the emitted batch, so no column is loaded twice.
    fn read_block(&self, part: &Partition, b: usize) -> Result<Option<Batch>> {
        let env = self.table.storage_env();
        let Some(filter) = &self.filter else {
            return part.block_batch(b, env).map(Some);
        };
        let checked: Vec<ColumnVector> =
            filter.columns.iter().map(|&c| part.block_column(c, b, env)).collect::<Result<_>>()?;
        let checked = Batch::new(checked);
        if !filter.passes_any(&checked)? {
            return Ok(None);
        }
        let mut checked = filter.columns.iter().copied().zip(checked.into_columns()).peekable();
        let columns = (0..self.table.schema().len())
            .map(|c| match checked.next_if(|(checked_c, _)| *checked_c == c) {
                Some((_, column)) => Ok(column),
                None => part.block_column(c, b, env),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Some(Batch::new(columns)))
    }
}

impl Operator for ScanExec {
    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            let (p, b) = self.cursor;
            let end_partition = match self.partition {
                Some(part) => part + 1,
                None => self.table.partition_count(),
            };
            if p >= end_partition {
                return Ok(None);
            }
            enum Step {
                EndOfPartition,
                Pruned,
                Read(Result<Option<Batch>>),
            }
            let step = self.table.with_partitions(|parts| {
                let part = &parts[p];
                // Bound by the construction-time snapshot: blocks
                // appended since then stay invisible to this scan.
                let snap = self.snapshot.get(p).copied().unwrap_or(0);
                let end_block = self.blocks.map_or(snap, |(_, e)| e.min(snap));
                if b >= end_block {
                    return Step::EndOfPartition;
                }
                for pred in &self.pruning {
                    let (min, max) = part.sma(pred.column, b);
                    if !self.block_survives(min, max, pred) {
                        return Step::Pruned;
                    }
                }
                Step::Read(self.read_block(part, b))
            });
            match step {
                Step::EndOfPartition => {
                    self.cursor = (p + 1, self.blocks.map_or(0, |(s, _)| s));
                }
                Step::Pruned => {
                    self.blocks_pruned += 1;
                    obs::metrics::EXEC_SCAN_BLOCKS_PRUNED.add(1);
                    self.cursor = (p, b + 1);
                }
                Step::Read(read) => {
                    self.cursor = (p, b + 1);
                    match read? {
                        Some(batch) => {
                            self.blocks_read += 1;
                            obs::metrics::EXEC_SCAN_BLOCKS_READ.add(1);
                            return Ok(Some(batch));
                        }
                        None => {
                            self.blocks_skipped += 1;
                            obs::metrics::EXEC_SCAN_BLOCKS_SKIPPED.add(1);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnVector;
    use crate::config::EngineConfig;
    use crate::exec::physical::drain;
    use crate::storage::{ColumnDef, Schema};
    use crate::types::DataType;

    fn table() -> Arc<Table> {
        let cfg = EngineConfig { vector_size: 4, partitions: 2, ..Default::default() };
        let t = Arc::new(Table::new(
            "t",
            Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap(),
            &cfg,
        ));
        t.append(vec![ColumnVector::Int((0..16).collect())]).unwrap();
        t
    }

    #[test]
    fn full_scan_reads_everything() {
        let t = table();
        let batches = drain(Box::new(ScanExec::new(t, vec![], None))).unwrap();
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn partition_restricted_scan() {
        let t = table();
        let b0 = drain(Box::new(ScanExec::new(Arc::clone(&t), vec![], Some(0)))).unwrap();
        let b1 = drain(Box::new(ScanExec::new(t, vec![], Some(1)))).unwrap();
        let n0: usize = b0.iter().map(Batch::num_rows).sum();
        let n1: usize = b1.iter().map(Batch::num_rows).sum();
        assert_eq!(n0 + n1, 16);
        assert_eq!(n0, 8);
    }

    #[test]
    fn block_range_scan_splits_a_partition_into_morsels() {
        let t = table();
        // Appends round-robin whole blocks: partition 0 holds blocks
        // [0..4) and [8..12), partition 1 holds [4..8) and [12..16).
        let m0 =
            drain(Box::new(ScanExec::with_blocks(Arc::clone(&t), vec![], Some(0), Some((0, 1)))))
                .unwrap();
        let m1 =
            drain(Box::new(ScanExec::with_blocks(Arc::clone(&t), vec![], Some(0), Some((1, 2)))))
                .unwrap();
        let rows = |bs: &[Batch]| -> Vec<i64> {
            bs.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect()
        };
        assert_eq!(rows(&m0), vec![0, 1, 2, 3]);
        assert_eq!(rows(&m1), vec![8, 9, 10, 11]);
        // An end past the real block count clamps instead of panicking.
        let tail =
            drain(Box::new(ScanExec::with_blocks(t, vec![], Some(1), Some((1, 99))))).unwrap();
        assert_eq!(rows(&tail), vec![12, 13, 14, 15]);
    }

    #[test]
    fn sma_pruning_skips_blocks_without_changing_results() {
        let t = table();
        // Blocks hold [0..4), [4..8), [8..12), [12..16): id >= 12 keeps 1.
        let pred = PrunePredicate { column: 0, op: BinaryOp::GtEq, value: Value::Int(12) };
        let mut scan = ScanExec::new(Arc::clone(&t), vec![pred], None);
        scan.open().unwrap();
        let mut rows = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            rows.extend(b.column(0).as_int().unwrap().to_vec());
        }
        assert_eq!(scan.blocks_pruned, 3);
        assert_eq!(scan.blocks_read, 1);
        // The surviving block contains exactly the matching rows (here the
        // block boundary aligns; in general the Filter above re-checks).
        assert_eq!(rows, vec![12, 13, 14, 15]);
    }

    #[test]
    fn eq_pruning_keeps_only_candidate_blocks() {
        let t = table();
        let pred = PrunePredicate { column: 0, op: BinaryOp::Eq, value: Value::Int(5) };
        let mut scan = ScanExec::new(t, vec![pred], None);
        scan.open().unwrap();
        let mut rows = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            rows.extend(b.column(0).as_int().unwrap().to_vec());
        }
        assert_eq!(rows, vec![4, 5, 6, 7]);
        assert_eq!(scan.blocks_pruned, 3);
    }

    #[test]
    fn noteq_never_prunes() {
        let t = table();
        let pred = PrunePredicate { column: 0, op: BinaryOp::NotEq, value: Value::Int(5) };
        let mut scan = ScanExec::new(t, vec![pred], None);
        scan.open().unwrap();
        let mut n = 0;
        while let Some(b) = scan.next().unwrap() {
            n += b.num_rows();
        }
        assert_eq!(n, 16);
        assert_eq!(scan.blocks_pruned, 0);
    }

    /// Three columns over 4-row blocks in one partition; block `i` holds
    /// ids `{i, i+4, i+8, i+12}`, so every block's SMA spans most of the
    /// key range and cannot prune an equality.
    fn shuffled() -> Arc<Table> {
        let cfg = EngineConfig { vector_size: 4, partitions: 1, ..Default::default() };
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
            ColumnDef::new("w", DataType::Int),
        ])
        .unwrap();
        let t = Arc::new(Table::new("t", schema, &cfg));
        let ids: Vec<i64> = (0..16).map(|r| (r % 4) * 4 + r / 4).collect();
        let v = ids.iter().map(|id| id * 10).collect();
        let w = ids.iter().map(|id| -id).collect();
        t.append(vec![ColumnVector::Int(ids), ColumnVector::Int(v), ColumnVector::Int(w)]).unwrap();
        t
    }

    fn eq(column: usize, value: i64) -> Expr {
        Expr::binary(BinaryOp::Eq, Expr::col(column), Expr::lit(Value::Int(value)))
    }

    fn rows(scan: &mut ScanExec) -> Result<Vec<Vec<Value>>> {
        scan.open()?;
        let mut rows = Vec::new();
        while let Some(b) = scan.next()? {
            rows.extend((0..b.num_rows()).map(|i| b.row(i)));
        }
        Ok(rows)
    }

    #[test]
    fn filter_first_skips_blocks_the_sma_cannot_prune() {
        let pred = PrunePredicate { column: 0, op: BinaryOp::Eq, value: Value::Int(9) };
        let mut scan = ScanExec::new(shuffled(), vec![pred], None).filter_first(&eq(0, 9));
        let ids: Vec<Value> = rows(&mut scan).unwrap().into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(scan.blocks_pruned, 0);
        assert_eq!(scan.blocks_skipped, 3);
        assert_eq!(scan.blocks_read, 1);
        // The block is emitted whole: the filter above picks the row.
        assert_eq!(ids, [1, 5, 9, 13].map(Value::Int));
    }

    #[test]
    fn filter_first_reuses_the_checked_column_in_place() {
        // The check reads column 1 only; the emitted block still lists
        // every column in table order.
        let mut scan = ScanExec::new(shuffled(), vec![], None).filter_first(&eq(1, 70));
        let got = rows(&mut scan).unwrap();
        let want: Vec<Vec<Value>> = [3, 7, 11, 15]
            .iter()
            .map(|&id| vec![id, id * 10, -id].into_iter().map(Value::Int).collect())
            .collect();
        assert_eq!(got, want);
        assert_eq!((scan.blocks_skipped, scan.blocks_read), (3, 1));
    }

    #[test]
    fn filter_first_fails_with_the_filters_error() {
        // id / (v - 50): block 0 passes no row, block 1 divides by zero.
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::binary(
                BinaryOp::Div,
                Expr::col(0),
                Expr::binary(BinaryOp::Sub, Expr::col(1), Expr::lit(Value::Int(50))),
            ),
            Expr::lit(Value::Int(0)),
        );
        let t = shuffled();
        let filter_error = t
            .with_partitions(|parts| pred.eval(&parts[0].block_batch(1, None).unwrap()))
            .unwrap_err();
        let mut scan = ScanExec::new(t, vec![], None).filter_first(&pred);
        let err = rows(&mut scan).unwrap_err();
        assert_eq!(err.to_string(), filter_error.to_string());
        assert_eq!(scan.blocks_skipped, 1);
    }

    #[test]
    fn filter_over_every_column_is_not_checked_first() {
        let all = Expr::binary(
            BinaryOp::And,
            eq(0, 9),
            Expr::binary(BinaryOp::Lt, Expr::col(1), Expr::col(2)),
        );
        let mut scan = ScanExec::new(shuffled(), vec![], None).filter_first(&all);
        assert_eq!(rows(&mut scan).unwrap().len(), 16);
        assert_eq!((scan.blocks_skipped, scan.blocks_read), (0, 4));
    }
}
