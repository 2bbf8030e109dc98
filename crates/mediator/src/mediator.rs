//! The mediator facade: registration phase + query phase (Figures 1–2).

use std::collections::BTreeMap;
use std::sync::Arc;

use disco_algebra::display::explain_physical;
use disco_algebra::{LogicalPlan, PhysicalPlan};
use disco_catalog::Catalog;
use disco_common::{DiscoError, HealthTracker, Result};
use disco_core::{AnalyzeNode, Estimator, HistoryRecorder, NodeCost, RuleRegistry};
use disco_transport::{ResiliencePolicy, TransportClient};
use disco_wrapper::{Registration, Wrapper};

use crate::adaptive::{AdaptivePolicy, Replanner};
use crate::analyze::analyze;
use crate::executor::{submit_sites, ExecutionTrace, Executor, QueryResult};
use crate::optimizer::{Objective, OptimizedPlan, Optimizer, OptimizerOptions};

/// Behaviour switches.
#[derive(Debug, Clone)]
pub struct MediatorOptions {
    /// Record executed subqueries as query-scope rules (§4.3.1).
    pub record_history: bool,
    /// Tolerate transport-connected wrappers that stay down past the
    /// retry budget: their submits contribute empty subanswers and the
    /// affected collections are reported in the trace, instead of the
    /// whole query erroring. On by default; only meaningful with a
    /// connected transport (in-process wrappers cannot fail transiently).
    pub partial_answers: bool,
    /// Cost-model-driven resilience: predicted deadlines, query budgets,
    /// hedged replica submits and adaptive wrapper penalties. Only
    /// meaningful with a connected transport.
    pub resilience: ResiliencePolicy,
    /// Rows per subanswer chunk. `None` (the default): every wrapper
    /// ships its answer as one chunk and all of them are fetched before
    /// the combine starts, so every submit is fully measured.
    /// `Some(n)` (clamped to at least 1): wrappers stream chunks of at
    /// most `n` rows which the combine operators pull incrementally, so
    /// first rows surface before the slowest site has finished and
    /// `LIMIT` stops pulling early. Answers are identical either way.
    pub chunk_rows: Option<u32>,
    /// Mid-query adaptive re-optimization: when measured subanswer
    /// cardinalities contradict the optimizer's predictions badly
    /// enough, re-enumerate the combine plan with corrected
    /// cardinalities and abandon the running join order for a cheaper
    /// one — fetched subanswers are reused, never re-fetched. Off by
    /// default; works at any chunk size.
    pub adaptive: AdaptivePolicy,
}

impl Default for MediatorOptions {
    fn default() -> Self {
        MediatorOptions {
            record_history: false,
            partial_answers: true,
            resilience: ResiliencePolicy::default(),
            chunk_rows: None,
            adaptive: AdaptivePolicy::default(),
        }
    }
}

/// The DISCO mediator.
pub struct Mediator {
    catalog: Catalog,
    registry: RuleRegistry,
    wrappers: BTreeMap<String, Box<dyn Wrapper>>,
    transport: Option<TransportClient>,
    history: HistoryRecorder,
    options: MediatorOptions,
    tracer: Option<disco_obs::Tracer>,
    /// Per-wrapper failure/latency EWMAs: written by the transport
    /// client on every submit, read by the estimator as a wrapper-scope
    /// penalty, decayed one tick per executed query.
    health: Arc<HealthTracker>,
}

impl Default for Mediator {
    fn default() -> Self {
        Self::new()
    }
}

impl Mediator {
    /// A mediator with the generic cost model installed.
    pub fn new() -> Self {
        let options = MediatorOptions::default();
        let health = Arc::new(HealthTracker::new(options.resilience.health));
        Mediator {
            catalog: Catalog::new(),
            registry: RuleRegistry::with_default_model(),
            wrappers: BTreeMap::new(),
            transport: None,
            history: HistoryRecorder::new(),
            options,
            tracer: None,
            health,
        }
    }

    /// Attach a tracer: subsequent `plan`/`query` calls record
    /// per-phase spans (parse, analyze, optimize with enumeration
    /// sub-phases, execute with per-wrapper submit and combine spans).
    pub fn set_tracer(&mut self, tracer: disco_obs::Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detach the tracer set with [`set_tracer`](Self::set_tracer).
    pub fn clear_tracer(&mut self) -> Option<disco_obs::Tracer> {
        self.tracer.take()
    }

    /// Set behaviour options. Resets the health tracker to the new
    /// resilience policy's EWMA tuning (and re-attaches it to a
    /// connected transport).
    pub fn with_options(mut self, options: MediatorOptions) -> Self {
        if self.health.policy() != options.resilience.health {
            self.health = Arc::new(HealthTracker::new(options.resilience.health));
            self.transport = self
                .transport
                .take()
                .map(|c| c.with_health(self.health.clone()));
        }
        self.options = options;
        self
    }

    /// The shared per-wrapper health tracker (introspection).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The behaviour options currently in force.
    pub fn options(&self) -> &MediatorOptions {
        &self.options
    }

    /// An optimizer over the current catalog/registry with the default
    /// options and this mediator's health tracker applied (the same one
    /// [`Self::plan`] uses for single-branch statements). The default
    /// `TotalTime` objective; callers planning a `LIMIT` query chain
    /// [`Optimizer::with_objective`] to rank by `TimeFirst` instead.
    pub(crate) fn optimizer(&self) -> Optimizer<'_> {
        let mut optimizer =
            Optimizer::new(&self.catalog, &self.registry, OptimizerOptions::default())
                .with_health(Some(&self.health));
        if let Some(t) = &self.tracer {
            optimizer = optimizer.with_tracer(t.clone());
        }
        optimizer
    }

    /// The registration phase (Figure 1): upload the wrapper's schema,
    /// capabilities, statistics and compiled cost rules.
    pub fn register(&mut self, wrapper: Box<dyn Wrapper>) -> Result<()> {
        let name = wrapper.name().to_owned();
        let reg = wrapper.registration()?;
        self.install_registration(&name, &reg)?;
        self.wrappers.insert(name, wrapper);
        Ok(())
    }

    /// Attach a transport and register every endpoint it reaches: the
    /// same Figure 1 protocol as [`register`](Self::register), but the
    /// registration payload arrives serialized over the wire instead of
    /// via an in-process call. Subsequent queries submit subplans to
    /// these wrappers through the transport (deadlines, retries, circuit
    /// breaking, partial answers).
    pub fn connect(&mut self, client: TransportClient) -> Result<()> {
        let client = client.with_health(self.health.clone());
        for endpoint in client.endpoints() {
            let reg = client.register(&endpoint)?;
            self.install_registration(&endpoint, &reg)?;
        }
        self.transport = Some(client);
        Ok(())
    }

    /// The attached transport client, if any (breaker introspection).
    pub fn transport(&self) -> Option<&TransportClient> {
        self.transport.as_ref()
    }

    /// Install a registration payload into catalog and registry.
    fn install_registration(&mut self, name: &str, reg: &Registration) -> Result<()> {
        self.catalog
            .register_wrapper(name, reg.capabilities.clone())?;
        for (coll, schema, stats) in &reg.collections {
            self.catalog
                .register_collection(name, coll.clone(), schema.clone(), stats.clone())?;
        }
        self.registry.register_document(name, &reg.cost_rules)?;
        Ok(())
    }

    /// Remove a wrapper entirely (the administrative re-registration
    /// interface of §2.1).
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.catalog.unregister_wrapper(name)?;
        self.registry.remove_wrapper(name);
        self.wrappers.remove(name);
        Ok(())
    }

    /// Re-register a wrapper in place (§2.1: "an administrative interface
    /// … to re-register wrappers … necessary when the cost formulas are
    /// improved by the wrapper implementor, or the statistics become out
    /// of date"). Pulls a fresh registration payload from the wrapper and
    /// replaces its catalog entries, parameters and rules; recorded
    /// query-scope history for the wrapper is discarded with them.
    pub fn refresh(&mut self, name: &str) -> Result<()> {
        let reg = if let Some(wrapper) = self.wrappers.get(name) {
            wrapper.registration()?
        } else if let Some(client) = &self.transport {
            client.register(name)?
        } else {
            return Err(DiscoError::Catalog(format!(
                "wrapper `{name}` is not registered"
            )));
        };
        self.catalog.unregister_wrapper(name)?;
        self.registry.remove_wrapper(name);
        self.install_registration(name, &reg)
    }

    /// The mediator catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Declare a wrapper's buffer-cache regime (cold by default). A warm
    /// regime scales the Yao page prediction in EXPLAIN ANALYZE by the
    /// expected miss fraction.
    pub fn set_cache_regime(
        &mut self,
        wrapper: &str,
        regime: disco_catalog::CacheRegime,
    ) -> Result<()> {
        self.catalog.set_cache_regime(wrapper, regime)
    }

    /// Declare that several registered wrappers serve interchangeable
    /// copies of `collection`: the optimizer may pick any of them by
    /// cost, and the executor may hedge a straggling submit to (or fail
    /// over onto) the peers.
    pub fn declare_replicas(&mut self, collection: &str, wrappers: &[&str]) -> Result<()> {
        self.catalog.declare_replicas(collection, wrappers)
    }

    /// Administratively replace a wrapper's declared capability set
    /// (e.g. a source upgrade enabling pushdown, or an operator being
    /// disabled). Bumps the catalog's capability epoch so plan caches
    /// drop decisions negotiated against the old profile.
    pub fn set_wrapper_capabilities(
        &mut self,
        wrapper: &str,
        capabilities: disco_catalog::Capabilities,
    ) -> Result<()> {
        self.catalog.set_wrapper_capabilities(wrapper, capabilities)
    }

    /// The blended rule registry.
    pub fn registry(&self) -> &RuleRegistry {
        &self.registry
    }

    /// Mutable registry access (parameter adjustment, extra rules).
    pub fn registry_mut(&mut self) -> &mut RuleRegistry {
        &mut self.registry
    }

    /// Subqueries recorded into the history so far.
    pub fn history_recorded(&self) -> usize {
        self.history.recorded()
    }

    /// An estimator over the current registry/catalog, consulting the
    /// adaptive health penalties.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::new(&self.registry, &self.catalog).with_health(Some(&self.health))
    }

    /// Optimize a statement (a query or a `UNION [ALL]` chain) without
    /// executing it.
    pub fn plan(&self, sql: &str) -> Result<OptimizedPlan> {
        let stmt = {
            let _s = self.tracer.as_ref().map(|t| t.start("parse"));
            crate::sql::parse_statement(sql)?
        };
        // A LIMIT marks the query latency-sensitive: rank plans by
        // `TimeFirst` so chunked execution surfaces the first rows (and
        // stops) as early as possible.
        let objective = if stmt.limit.is_some() {
            Objective::TimeFirst
        } else {
            Objective::TotalTime
        };
        let optimizer = self.optimizer().with_objective(objective);

        if stmt.branches.len() == 1 {
            let mut query = stmt.branches.into_iter().next().expect("one branch");
            query.order_by = stmt.order_by;
            query.limit = stmt.limit;
            let analyzed = {
                let _s = self.tracer.as_ref().map(|t| t.start("analyze"));
                analyze(&query, &self.catalog)?
            };
            let _s = self.tracer.as_ref().map(|t| t.start("optimize"));
            return optimizer.optimize(&analyzed);
        }

        // Union chain: optimize each branch, then combine.
        let _union_span = self.tracer.as_ref().map(|t| t.start("optimize"));
        let mut branch_plans = Vec::with_capacity(stmt.branches.len());
        let mut first_outputs: Option<Vec<String>> = None;
        let mut considered = 0;
        let mut pruned = 0;
        let mut nodes = 0;
        let mut rules = 0;
        let mut memo_hits = 0;
        let mut rule_cache_hits = 0;
        let mut negotiation = Vec::new();
        let mut predictions = Vec::new();
        for query in &stmt.branches {
            let analyzed = {
                let _s = self.tracer.as_ref().map(|t| t.start("analyze"));
                analyze(query, &self.catalog)?
            };
            let outputs: Vec<String> = analyzed.output.iter().map(|(n, _)| n.clone()).collect();
            match &first_outputs {
                None => first_outputs = Some(outputs),
                Some(first) => {
                    if first.len() != outputs.len() {
                        return Err(DiscoError::Plan(format!(
                            "UNION branches have {} vs {} columns",
                            first.len(),
                            outputs.len()
                        )));
                    }
                }
            }
            let plan = optimizer.optimize(&analyzed)?;
            considered += plan.plans_considered;
            pruned += plan.plans_pruned;
            nodes += plan.estimator_nodes;
            rules += plan.estimator_rules;
            memo_hits += plan.memo_hits;
            rule_cache_hits += plan.rule_cache_hits;
            negotiation.extend(plan.negotiation);
            // The union's submits are the branches', in branch order.
            predictions.extend(plan.predictions);
            branch_plans.push(plan.physical);
        }
        let mut iter = branch_plans.into_iter();
        let mut combined = iter.next().expect("at least two branches");
        for right in iter {
            combined = disco_algebra::PhysicalPlan::Union {
                left: Box::new(combined),
                right: Box::new(right),
            };
        }
        if !stmt.all {
            combined = disco_algebra::PhysicalPlan::Dedup {
                input: Box::new(combined),
            };
        }
        if !stmt.order_by.is_empty() {
            let first = first_outputs.expect("branches analyzed");
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for (col, asc) in &stmt.order_by {
                if col.table.is_some() || !first.contains(&col.column) {
                    return Err(DiscoError::Plan(format!(
                        "ORDER BY `{col}` must name an output column of the first UNION branch"
                    )));
                }
                keys.push((col.column.clone(), *asc));
            }
            combined = disco_algebra::PhysicalPlan::Sort {
                input: Box::new(combined),
                keys,
            };
        }
        let estimator = self.estimator();
        let estimated = estimator.estimate(&crate::optimizer::to_logical(&combined))?;
        Ok(OptimizedPlan {
            physical: combined,
            estimated,
            plans_considered: considered,
            plans_pruned: pruned,
            estimator_nodes: nodes,
            estimator_rules: rules,
            memo_hits,
            rule_cache_hits,
            fast_path: false,
            limit: stmt.limit,
            // Unions are not replayable as one decision set; branches
            // cache individually when queried alone.
            decisions: None,
            negotiation,
            predictions,
        })
    }

    /// Render the chosen plan's full cost attribution: which rule, from
    /// which scope, computed each variable of each node (the observable
    /// form of the Figure 10 blending).
    pub fn explain_costs(&self, sql: &str) -> Result<String> {
        let plan = self.plan(sql)?;
        let logical = crate::optimizer::to_logical(&plan.physical);
        let node = self
            .estimator()
            .explain(&logical, &Default::default())?
            .ok_or_else(|| DiscoError::Cost("estimation pruned unexpectedly".into()))?;
        Ok(node.render())
    }

    /// Render the chosen plan and its estimate, including the
    /// capability-negotiation report: which operators were pushed into
    /// which wrapper, which were lifted into the mediator's combine
    /// plan because a profile forbids them, and which stayed local by
    /// cost.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let plan = self.plan(sql)?;
        let mut negotiation = String::new();
        if !plan.negotiation.is_empty() {
            negotiation.push_str("negotiation:\n");
            for note in &plan.negotiation {
                negotiation.push_str("  ");
                negotiation.push_str(note);
                negotiation.push('\n');
            }
        }
        Ok(format!(
            "{}{}estimated: {}\nplans considered: {} (pruned {})\n",
            explain_physical(&plan.physical),
            negotiation,
            plan.estimated,
            plan.plans_considered,
            plan.plans_pruned
        ))
    }

    /// Full query processing (Figure 2): parse, decompose, optimize,
    /// execute, combine.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        let optimized = self.plan(sql)?;
        self.execute_plan(optimized)
    }

    /// EXPLAIN ANALYZE: optimize, capture the full cost attribution of
    /// the chosen plan, execute it instrumented, and zip predicted
    /// against measured node-for-node. The predicted side is computed
    /// *before* execution, so with history recording enabled the
    /// query-scope rules a run leaves behind only show up in the next
    /// run's report.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<AnalyzeReport> {
        let optimized = self.plan(sql)?;
        self.explain_analyze_plan(optimized)
    }

    /// [`Self::explain_analyze`] of a plan optimized already, such as one
    /// a plan cache served: the report depends on the plan alone, not on
    /// how it was arrived at.
    pub fn explain_analyze_plan(&mut self, optimized: OptimizedPlan) -> Result<AnalyzeReport> {
        let physical = optimized.physical.clone();
        let logical = crate::optimizer::to_logical(&optimized.physical);
        let predicted = self
            .estimator()
            .explain(&logical, &Default::default())?
            .ok_or_else(|| DiscoError::Cost("estimation pruned unexpectedly".into()))?;
        let result = self.execute_plan(optimized)?;
        let measured = result
            .trace
            .measured
            .as_ref()
            .ok_or_else(|| DiscoError::Plan("executor produced no measured tree".into()))?;
        // A mid-query re-plan executed a different combine order than the
        // one priced above: re-explain the plan that actually ran (with
        // the original, pre-execution statistics) so predicted and
        // measured zip node-for-node. The re-plan itself is reported in
        // the footer (see `AnalyzeReport::render`).
        let (predicted, physical) = match &result.trace.final_plan {
            Some(final_plan) => {
                let logical = crate::optimizer::to_logical(final_plan);
                let predicted = self
                    .estimator()
                    .explain(&logical, &Default::default())?
                    .ok_or_else(|| DiscoError::Cost("estimation pruned unexpectedly".into()))?;
                (predicted, final_plan.clone())
            }
            None => (predicted, physical),
        };
        let mut root = AnalyzeNode::zip(&predicted, measured);
        self.fill_predicted_pages(&mut root, &physical);
        Ok(AnalyzeReport { root, result })
    }

    /// Fill `predicted_pages` on the report's executed `submit` nodes:
    /// Yao's page estimate for the site's base collection, scaled by the
    /// wrapper's cache regime, so EXPLAIN ANALYZE shows predicted vs
    /// measured page I/O side by side. Submit nodes are matched to
    /// [`submit_sites`] in fetch order (both are depth-first, left before
    /// right). Sites whose subplan reads more than one collection, or
    /// whose statistics are missing, are left without a prediction.
    fn fill_predicted_pages(&self, root: &mut AnalyzeNode, plan: &PhysicalPlan) {
        fn executed_submits<'a>(node: &'a mut AnalyzeNode, out: &mut Vec<&'a mut AnalyzeNode>) {
            if node.measured.is_some() && node.operator.starts_with("submit ") {
                // The children are the wrapper-side (predicted-only)
                // subtree — no executed submits below.
                out.push(node);
                return;
            }
            for c in &mut node.children {
                executed_submits(c, out);
            }
        }
        let mut nodes = Vec::new();
        executed_submits(root, &mut nodes);
        for (node, (wrapper, subplan)) in nodes.into_iter().zip(submit_sites(plan)) {
            node.predicted_pages =
                self.predict_site_pages(wrapper, subplan, node.predicted.count_object);
        }
    }

    /// Yao page prediction for one submit site: `yao(n, m, k)` with `n`
    /// objects on `m` pages (the catalog's measured page count when a
    /// real engine exported one, else the `TotalSize / PageSize`
    /// derivation) and `k` the site's predicted result cardinality,
    /// multiplied by the wrapper's [`CacheRegime`] miss factor — a warm
    /// cache faults only the predicted miss fraction.
    fn predict_site_pages(
        &self,
        wrapper: &str,
        subplan: &LogicalPlan,
        predicted_rows: f64,
    ) -> Option<f64> {
        let qname = subplan.base_collection()?;
        let stats = self.catalog.stats(qname).ok()?;
        let n = stats.extent.count_object;
        let page_size = self
            .registry
            .wrapper_params(wrapper)
            .and_then(|p| p.get_f64("PageSize"))
            .or_else(|| self.registry.params().get_f64("PageSize"))
            .unwrap_or(disco_core::params::DEFAULT_PAGE_SIZE) as u64;
        let m = stats.extent.count_pages(page_size);
        if n == 0 || m == 0 {
            return None;
        }
        let k = (predicted_rows.round().max(0.0) as u64).min(n);
        let miss = self.catalog.cache_regime(wrapper).miss_factor();
        Some(disco_core::yao::yao_pages_exact(n, m, k) * miss)
    }

    /// Failover replica lists for the plan's submit wrappers: declared
    /// peers serving *every* collection of the site's subplan, ordered
    /// healthiest first (declared order breaks ties).
    fn site_replicas(&self, plan: &PhysicalPlan) -> BTreeMap<String, Vec<String>> {
        let mut replicas = BTreeMap::new();
        for (wrapper, subplan) in submit_sites(plan) {
            let mut peers: Option<Vec<String>> = None;
            for qname in subplan.collections() {
                let serving = self.catalog.replica_peers(qname);
                peers = Some(match peers {
                    None => serving,
                    Some(prev) => prev.into_iter().filter(|p| serving.contains(p)).collect(),
                });
            }
            let mut peers = peers.unwrap_or_default();
            peers.sort_by(|a, b| {
                self.health
                    .penalty(a)
                    .partial_cmp(&self.health.penalty(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            replicas.insert(wrapper.to_string(), peers);
        }
        replicas
    }

    /// Execute a previously optimized plan.
    pub fn execute_plan(&mut self, optimized: OptimizedPlan) -> Result<QueryResult> {
        let result = self.execute_plan_shared(optimized)?;
        if self.options.record_history {
            self.record_trace_history(&result.trace);
        }
        Ok(result)
    }

    /// Execute a previously optimized plan through `&self` — everything
    /// `execute_plan` does except §4.3.1 history recording (which
    /// mutates the rule registry and so needs `&mut self`; see
    /// [`Self::record_trace_history`]). This is the path the concurrent
    /// serving layer drives under a read lock, so N sessions execute in
    /// parallel and only a session that actually recorded feedback
    /// takes the write lock.
    pub fn execute_plan_shared(&self, optimized: OptimizedPlan) -> Result<QueryResult> {
        let resilience = &self.options.resilience;
        // The plan carries its submits' predictions, priced with it. They
        // matter over a transport when the policy can use them, and on
        // either backend when adaptive re-optimization needs predicted
        // cardinalities to compare measurements against.
        let adaptive = self.options.adaptive.enabled;
        let predictions = if adaptive
            || (self.transport.is_some() && (resilience.predicted_deadlines || resilience.hedge))
        {
            optimized.predictions
        } else {
            Vec::new()
        };
        let replicas = if self.transport.is_some() && resilience.hedge {
            self.site_replicas(&optimized.physical)
        } else {
            BTreeMap::new()
        };
        let replanner = adaptive.then(|| {
            Replanner::new(
                &self.registry,
                &self.catalog,
                Some(&self.health),
                self.options.adaptive.clone(),
            )
        });
        let executor = match &self.transport {
            Some(client) => Executor::remote(client, &self.registry)
                .with_resilience(self.options.resilience.clone())
                .with_predictions(predictions)
                .with_replicas(replicas),
            None => Executor::new(&self.wrappers, &self.registry).with_predictions(predictions),
        }
        .with_partial_answers(self.options.partial_answers)
        .with_adaptive(replanner);
        let span = self.tracer.as_ref().map(|t| t.start("execute"));
        let executed = executor.execute(
            &optimized.physical,
            self.options.chunk_rows,
            optimized.limit,
        );
        // One decay tick per executed query — wrappers the query never
        // touched heal over time instead of staying penalized forever.
        self.health.tick();
        let (schema, tuples, trace) = executed?;
        let measured_ms = trace.sequential_ms();
        if let Some(t) = &self.tracer {
            // Submits overlapped on the wire and the combine phase ran
            // under the virtual clock: attach them post-hoc with their
            // measured durations.
            let at = t.elapsed_us();
            for sub in &trace.submits {
                t.record(
                    &format!("submit:{}", sub.wrapper),
                    at,
                    (sub.wall_ms * 1000.0) as u64,
                    vec![
                        ("tuples".into(), sub.tuples.to_string()),
                        ("attempts".into(), sub.attempts.to_string()),
                        ("failed".into(), sub.failed.to_string()),
                        ("served_by".into(), sub.served_by.clone()),
                        ("hedges".into(), sub.hedges.to_string()),
                    ],
                );
            }
            t.record(
                "combine",
                at,
                (trace.mediator_ms * 1000.0) as u64,
                vec![("rows".into(), tuples.len().to_string())],
            );
        }
        if let Some(s) = span {
            s.finish();
        }
        if disco_obs::enabled() {
            disco_obs::counter(disco_obs::names::QUERIES, &[]).inc();
            disco_obs::histogram(disco_obs::names::QUERY_MS, &[]).observe(measured_ms);
        }

        Ok(QueryResult {
            schema,
            tuples,
            measured_ms,
            estimated: optimized.estimated,
            trace,
        })
    }

    /// Record measured submits from an execution trace as query-scope
    /// rules (§4.3.1). Returns how many rules were actually recorded,
    /// so callers keeping derived state (a plan cache keyed on the
    /// registry's contents) know whether anything changed.
    pub fn record_trace_history(&mut self, trace: &ExecutionTrace) -> usize {
        let mut recorded = 0;
        // Record every *fully measured* submit — including those of
        // queries that otherwise degraded to a partial answer or had
        // sibling streams budget-truncated: a complete subanswer's
        // cardinality is trustworthy regardless of what happened to the
        // rest of the query. Failed (substituted) and truncated submits
        // measured nothing worth remembering.
        for sub in trace.submits.iter().filter(|s| s.complete) {
            let measured = NodeCost {
                time_first: sub.stats.time_first_ms,
                time_next: (sub.stats.elapsed_ms - sub.stats.time_first_ms)
                    / (sub.tuples.max(1) as f64),
                total_time: sub.stats.elapsed_ms,
                count_object: sub.tuples as f64,
                total_size: sub.bytes as f64,
            };
            // Unsupported shapes (multi-conjunct etc.) are skipped —
            // the paper notes the same restriction.
            if self
                .history
                .record(&mut self.registry, &sub.wrapper, &sub.plan, measured)
                .is_ok()
            {
                recorded += 1;
            }
        }
        recorded
    }

    /// Direct access to a registered wrapper (experiments).
    pub fn wrapper(&self, name: &str) -> Result<&dyn Wrapper> {
        self.wrappers
            .get(name)
            .map(|w| w.as_ref())
            .ok_or_else(|| DiscoError::Catalog(format!("wrapper `{name}` is not registered")))
    }

    /// Names of all registered wrappers.
    pub fn wrapper_names(&self) -> Vec<&str> {
        self.wrappers.keys().map(String::as_str).collect()
    }
}

/// The outcome of [`Mediator::explain_analyze`]: the executed query
/// plus the zipped predicted-vs-measured plan tree.
pub struct AnalyzeReport {
    /// Root of the zipped tree.
    pub root: AnalyzeNode,
    /// The executed query's answer, estimate and trace.
    pub result: QueryResult,
}

impl AnalyzeReport {
    /// Render the per-node report plus a summary footer: end-to-end
    /// predicted vs measured time, and any collections lost to downed
    /// wrappers.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.root.render();
        let predicted = self.result.estimated.total_time;
        let measured = self.result.measured_ms;
        let _ = write!(
            out,
            "total: predicted={predicted:.3}ms measured={measured:.3}ms error="
        );
        match disco_core::relative_error(predicted, measured) {
            Some(e) => {
                let _ = writeln!(out, "{:+.1}%", e * 100.0);
            }
            None => {
                let _ = writeln!(out, "n/a");
            }
        }
        if !self.result.trace.missing.is_empty() {
            let names: Vec<String> = self
                .result
                .trace
                .missing
                .iter()
                .map(|q| q.to_string())
                .collect();
            let _ = writeln!(out, "missing (wrapper unavailable): {}", names.join(", "));
        }
        let hedged: Vec<String> = self
            .result
            .trace
            .submits
            .iter()
            .filter(|s| !s.served_by.is_empty() && s.served_by != s.wrapper)
            .map(|s| format!("{} -> {}", s.wrapper, s.served_by))
            .collect();
        if self.result.trace.hedges > 0 || !hedged.is_empty() {
            let _ = write!(out, "hedges: {}", self.result.trace.hedges);
            if !hedged.is_empty() {
                let _ = write!(out, " (served by replica: {})", hedged.join(", "));
            }
            let _ = writeln!(out);
        }
        if self.result.trace.budget_exhausted {
            let _ = writeln!(out, "query budget exhausted: unanswered submits given up");
        }
        for replan in &self.result.trace.replans {
            let _ = writeln!(out, "{}", replan.render());
        }
        out
    }
}

/// Convenience: `explain` on an already-built physical plan.
pub fn explain_plan(plan: &PhysicalPlan) -> String {
    explain_physical(plan)
}
