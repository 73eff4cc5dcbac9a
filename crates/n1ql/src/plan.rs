//! Query plan representation (the output of §4.5.3's planner).

use cbs_index::IndexDef;

use crate::ast::{Expr, Select, Statement};

/// A scan-range *specification*: bound expressions (literals or
/// parameters) captured at plan time and resolved against the request's
/// parameters at execution time ([`RangeSpec::resolve`], in `planner`).
///
/// Keeping bounds symbolic makes a plan parameter-independent: the plan
/// cache can serve every binding of a prepared statement with one entry
/// instead of baking `$start`'s first value into the plan.
#[derive(Debug, Clone, Default)]
pub struct RangeSpec {
    /// Lower-bound candidates as `(expression, inclusive)`; the tightest
    /// resolved value wins.
    pub lows: Vec<(Expr, bool)>,
    /// Upper-bound candidates as `(expression, inclusive)`.
    pub highs: Vec<(Expr, bool)>,
}

impl RangeSpec {
    /// Exactly one leading-key value (equality predicate).
    pub fn exact(e: Expr) -> RangeSpec {
        RangeSpec { lows: vec![(e.clone(), true)], highs: vec![(e, true)] }
    }

    /// Is any lower bound present?
    pub fn has_low(&self) -> bool {
        !self.lows.is_empty()
    }

    /// Is any upper bound present?
    pub fn has_high(&self) -> bool {
        !self.highs.is_empty()
    }

    /// No bounds on either side.
    pub fn is_unbounded(&self) -> bool {
        self.lows.is_empty() && self.highs.is_empty()
    }
}

/// The optimizer's estimate for the chosen access path, shown by EXPLAIN
/// and PROFILE next to the scan operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimate {
    /// Unitless cost (index entries read × entry cost + documents fetched
    /// × fetch cost; see DESIGN.md §13 for the formulas).
    pub cost: f64,
    /// Estimated rows out of the scan.
    pub cardinality: f64,
    /// True when keyspace statistics informed the estimate; false means
    /// the planner fell back to rule-based selection.
    pub based_on_stats: bool,
}

/// Join algorithm chosen per FROM operation (§4.5.3: "determine the type
/// of the join operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Key-based nested loop: one KV fetch per outer-row key (§3.2.4).
    #[default]
    NestedLoop,
    /// Build a hash table over the inner keyspace once, probe per key —
    /// wins when the outer side produces more fetches than one inner scan.
    Hash,
}

/// How the primary keyspace of a SELECT is accessed (§4.5.3 "Keyspace
/// (bucket) scan — There are three types of scans").
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// *Keyscan access*: "when specific document IDs (primary keys) are
    /// available" — `USE KEYS`.
    KeyScan {
        /// Expression yielding a key or array of keys.
        keys: Expr,
    },
    /// *IndexScan access*: "a qualifying secondary index scan is used to
    /// first filter the keyspace and determine the qualifying document
    /// IDs."
    IndexScan {
        /// Chosen index.
        index: IndexDef,
        /// Leading-key range pushed into the index (symbolic bounds,
        /// resolved per request).
        range: RangeSpec,
        /// §5.1.2: a covering index "includes all of the information needed
        /// to satisfy the query and can thus avoid the need for an
        /// additional step to access the indexed data" — no Fetch operator.
        covering: bool,
    },
    /// *PrimaryScan access*: "the equivalent of a full table scan [...]
    /// quite expensive."
    PrimaryScan,
    /// No FROM clause at all (`SELECT 1+1`).
    ExpressionOnly,
}

/// A planned SELECT.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// The statement (the executor interprets its clauses).
    pub select: Select,
    /// Chosen access path for the primary keyspace.
    pub access: AccessPath,
    /// Whether a Fetch of full documents is required (false when covering).
    pub fetch: bool,
    /// Cost/cardinality estimate for the chosen access path.
    pub estimate: PlanEstimate,
    /// Join algorithm per FROM op, parallel to `select.from.ops` (Unnest
    /// entries are always [`JoinStrategy::NestedLoop`]).
    pub join_strategies: Vec<JoinStrategy>,
}

/// A fully planned statement.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // plans are built once per query, never stored in bulk
pub enum QueryPlan {
    /// SELECT pipeline.
    Select(SelectPlan),
    /// DML / DDL statements execute directly from their AST.
    Direct(Statement),
}

impl QueryPlan {
    /// Keyspaces whose DDL/data changes invalidate this plan — the plan
    /// cache records these with their epochs at insert time.
    pub fn dependencies(&self) -> Vec<String> {
        let mut deps = Vec::new();
        if let QueryPlan::Select(p) = self {
            if let Some(from) = &p.select.from {
                deps.push(from.keyspace.clone());
                for op in &from.ops {
                    match op {
                        crate::ast::FromOp::Join { keyspace, .. }
                        | crate::ast::FromOp::Nest { keyspace, .. } => {
                            if !deps.contains(keyspace) {
                                deps.push(keyspace.clone());
                            }
                        }
                        crate::ast::FromOp::Unnest { .. } => {}
                    }
                }
            }
        }
        deps
    }
}
