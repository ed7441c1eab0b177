//! The Volcano operator interface and the logical→physical translation.

use crate::column::Batch;
use crate::error::{EngineError, Result};
use crate::exec::agg::HashAggExec;
use crate::exec::join::{CrossJoinExec, HashJoinExec};
use crate::exec::scan::ScanExec;
use crate::exec::simple::{BatchesExec, FilterExec, LimitExec, ProjectExec, SortExec, ValuesExec};
use crate::plan::logical::{LogicalPlan, PrunePredicate};
use crate::storage::Table;
use std::sync::Arc;

/// A vectorized physical operator following the Volcano iterator model the
/// paper's ModelJoin plugs into (Sec. 5.1): `open()` allocates, `next()`
/// produces one [`Batch`] of at most `vector_size` rows (or `None` when
/// exhausted), `close()` releases resources.
pub trait Operator: Send {
    /// Prepare for execution. Default: nothing to do.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Produce the next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>>;

    /// Release resources. Default: nothing to do.
    fn close(&mut self) {}
}

/// Drain an operator into a vector of batches (open → next* → close).
pub fn drain(mut op: Box<dyn Operator>) -> Result<Vec<Batch>> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(batch) = op.next()? {
        if batch.num_rows() > 0 {
            out.push(batch);
        }
    }
    op.close();
    Ok(out)
}

/// Per-execution parameters for operator construction.
#[derive(Clone)]
pub struct ExecContext {
    /// Maximum rows per produced batch.
    pub vector_size: usize,
    /// When set, scans of exactly this table read only the given partition —
    /// the mechanism of the partition-parallel driver. All other tables are
    /// read fully by every worker (the paper's "model table is shared
    /// between the execution threads", Sec. 4.4).
    pub scan_restrict: Option<(Arc<Table>, usize)>,
    /// When set alongside `scan_restrict`, the restricted scan reads only
    /// this `[start, end)` block range — one morsel of the unified
    /// scheduler, so a skewed partition splits across stealable tasks.
    pub scan_blocks: Option<(usize, usize)>,
    /// Prune scan blocks by their min/max SMAs and read them filter-first
    /// under the filter directly above the scan
    /// (`EngineConfig::sma_pruning`).
    pub sma_pruning: bool,
    /// Time each operator's `next()` into the per-stage histograms
    /// (`EngineConfig::obs_spans`). Row/batch counters stay on regardless.
    pub obs_spans: bool,
}

impl ExecContext {
    pub fn new(vector_size: usize) -> ExecContext {
        ExecContext {
            vector_size,
            scan_restrict: None,
            scan_blocks: None,
            sma_pruning: true,
            obs_spans: true,
        }
    }

    /// Context for a full (non-partitioned) execution under `config`.
    pub fn from_config(config: &crate::config::EngineConfig) -> ExecContext {
        ExecContext {
            vector_size: config.vector_size,
            scan_restrict: None,
            scan_blocks: None,
            sma_pruning: config.sma_pruning,
            obs_spans: config.obs_spans,
        }
    }

    /// Context for one scheduler morsel: a block range within one
    /// partition of the driving table.
    pub fn for_morsel(
        config: &crate::config::EngineConfig,
        table: Arc<Table>,
        partition: usize,
        blocks: (usize, usize),
    ) -> ExecContext {
        ExecContext {
            scan_restrict: Some((table, partition)),
            scan_blocks: Some(blocks),
            ..ExecContext::from_config(config)
        }
    }
}

/// Instruments an operator with the stage metrics of its plan kind: every
/// `next()` counts the produced batch and rows, and (when spans are on)
/// records its wall time. The timing is *inclusive* — an operator's
/// `next()` pulls from its children inside the measured window — so stage
/// times overlap and must be read as "time spent with this stage on top
/// of the iterator stack's call path", not a disjoint breakdown.
struct MeteredOp {
    inner: Box<dyn Operator>,
    stage: &'static obs::StageMetrics,
    spans: bool,
}

impl Operator for MeteredOp {
    fn open(&mut self) -> Result<()> {
        self.inner.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let result = if self.spans {
            let _span = obs::span(&self.stage.time_us);
            self.inner.next()
        } else {
            self.inner.next()
        };
        if let Ok(Some(batch)) = &result {
            self.stage.batches.add(1);
            self.stage.rows.add(batch.num_rows() as u64);
        }
        result
    }

    fn close(&mut self) {
        self.inner.close()
    }
}

/// The stage-metric bundle a plan node reports under.
fn stage_of(plan: &LogicalPlan) -> &'static obs::StageMetrics {
    match plan {
        LogicalPlan::Scan { .. } => &obs::metrics::EXEC_SCAN,
        LogicalPlan::Filter { .. } => &obs::metrics::EXEC_FILTER,
        LogicalPlan::Project { .. } => &obs::metrics::EXEC_PROJECT,
        LogicalPlan::CrossJoin { .. } | LogicalPlan::HashJoin { .. } => &obs::metrics::EXEC_JOIN,
        LogicalPlan::Aggregate { .. } => &obs::metrics::EXEC_AGG,
        LogicalPlan::Sort { .. } => &obs::metrics::EXEC_SORT,
        LogicalPlan::Limit { .. } | LogicalPlan::Values { .. } => &obs::metrics::EXEC_OTHER,
    }
}

/// Translate a logical plan into an operator tree. Every operator is
/// wrapped in a [`MeteredOp`] reporting into its stage's metrics.
pub fn build_operator(plan: &LogicalPlan, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
    Ok(metered(plan, ctx, build_operator_inner(plan, ctx)?))
}

fn metered(plan: &LogicalPlan, ctx: &ExecContext, inner: Box<dyn Operator>) -> Box<dyn Operator> {
    Box::new(MeteredOp { inner, stage: stage_of(plan), spans: ctx.obs_spans })
}

/// The scan of `table`, restricted to the context's partition and block
/// range when the context drives this table.
fn scan(table: &Arc<Table>, pruning: &[PrunePredicate], ctx: &ExecContext) -> ScanExec {
    let (partition, blocks) = match &ctx.scan_restrict {
        Some((t, p)) if Arc::ptr_eq(t, table) => (Some(*p), ctx.scan_blocks),
        _ => (None, None),
    };
    ScanExec::with_blocks(Arc::clone(table), pruning.to_vec(), partition, blocks)
}

fn build_operator_inner(plan: &LogicalPlan, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
    Ok(match plan {
        LogicalPlan::Scan { table, pruning, .. } => Box::new(scan(table, pruning, ctx)),
        LogicalPlan::Filter { input, predicate } => {
            let input = match input.as_ref() {
                // The filter-first scan skips blocks with no passing row;
                // the FilterExec still picks the rows of the others.
                LogicalPlan::Scan { table, pruning, .. } if ctx.sma_pruning => {
                    metered(input, ctx, Box::new(scan(table, pruning, ctx).filter_first(predicate)))
                }
                _ => build_operator(input, ctx)?,
            };
            unary_operator(plan, input, ctx.vector_size)?
        }
        LogicalPlan::CrossJoin { left, right, .. } => Box::new(CrossJoinExec::new(
            build_operator(left, ctx)?,
            build_operator(right, ctx)?,
            ctx.vector_size,
        )),
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. } => {
            let (l, r) = (build_operator(left, ctx)?, build_operator(right, ctx)?);
            let (lk, rk) = (left_keys.clone(), right_keys.clone());
            Box::new(HashJoinExec::new(l, r, lk, rk, ctx.vector_size))
        }
        LogicalPlan::Values { rows, schema } => {
            Box::new(ValuesExec::new(rows.clone(), schema.types()))
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => {
            unary_operator(plan, build_operator(input, ctx)?, ctx.vector_size)?
        }
    })
}

/// The operator of a unary plan node (filter, project, aggregate, sort or
/// limit) over `input`, which stands in for the node's own input.
fn unary_operator(
    node: &LogicalPlan,
    input: Box<dyn Operator>,
    vector_size: usize,
) -> Result<Box<dyn Operator>> {
    Ok(match node {
        LogicalPlan::Filter { predicate, .. } => {
            Box::new(FilterExec::new(input, predicate.clone()))
        }
        LogicalPlan::Project { exprs, .. } => Box::new(ProjectExec::new(input, exprs.clone())),
        LogicalPlan::Aggregate { group, aggs, schema, .. } => Box::new(HashAggExec::new(
            input,
            group.clone(),
            aggs.clone(),
            schema.types(),
            vector_size,
        )),
        LogicalPlan::Sort { keys, .. } => Box::new(SortExec::new(input, keys.clone(), vector_size)),
        LogicalPlan::Limit { n, .. } => Box::new(LimitExec::new(input, *n)),
        _ => {
            return Err(EngineError::Execution(
                "only a unary operator can be replayed over gathered batches".into(),
            ))
        }
    })
}

/// Replay a chain of unary plan nodes, outermost first, over batches
/// already gathered from parallel tasks: the serial tail the
/// partition-parallel driver and the shard facade run once after their
/// gather.
pub fn replay(
    chain: &[&LogicalPlan],
    batches: Vec<Batch>,
    vector_size: usize,
) -> Result<Vec<Batch>> {
    let mut op = batches_operator(batches);
    for node in chain.iter().rev() {
        op = unary_operator(node, op, vector_size)?;
    }
    drain(op)
}

/// Wrap pre-computed batches as an operator (the input of a [`replay`]ed
/// chain, or of a shuffle join over exchanged buckets).
pub fn batches_operator(batches: Vec<Batch>) -> Box<dyn Operator> {
    Box::new(BatchesExec::new(batches))
}
