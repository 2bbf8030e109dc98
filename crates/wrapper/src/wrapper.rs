//! The wrapper trait and the generic source-backed implementation.

use disco_algebra::LogicalPlan;
use disco_catalog::{Capabilities, CapabilityProfile, CollectionStats};
use disco_common::{DiscoError, Result};
use disco_costlang::{compile_document, interface_to_catalog, parse_document, CompiledDocument};
use disco_sources::{DataSource, SubAnswer};

use crate::registration::{Registration, StatsExport};

/// A wrapper: registration payload plus subquery execution.
///
/// `Send + Sync` so a mediator (and its wrapper table) can be shared or
/// moved across threads.
pub trait Wrapper: Send + Sync {
    /// Registered name (the mediator addresses collections as
    /// `name.collection`).
    fn name(&self) -> &str;

    /// Build the registration payload (schema, capabilities, statistics,
    /// compiled cost rules).
    fn registration(&self) -> Result<Registration>;

    /// Execute a submitted subquery.
    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer>;
}

/// Generic wrapper over any [`DataSource`].
///
/// The *wrapper implementor*'s contribution is the cost document source
/// text — anything from an empty string (pure generic model) to the full
/// Figure 13 Yao rule — plus the statistics-export level.
pub struct SourceWrapper<S> {
    name: String,
    source: S,
    capabilities: Capabilities,
    cost_text: String,
    stats_export: StatsExport,
}

impl<S: DataSource> SourceWrapper<S> {
    /// Wrap a source with full capabilities, full statistics export and
    /// no wrapper-specific cost rules.
    pub fn new(name: impl Into<String>, source: S) -> Self {
        SourceWrapper {
            name: name.into(),
            source,
            capabilities: Capabilities::full(),
            cost_text: String::new(),
            stats_export: StatsExport::Full,
        }
    }

    /// Restrict the advertised capabilities.
    pub fn with_capabilities(mut self, capabilities: Capabilities) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Restrict the advertised capabilities to a declared profile.
    pub fn with_profile(self, profile: CapabilityProfile) -> Self {
        self.with_capabilities(profile.capabilities())
    }

    /// Provide the cost communication document (the wrapper implementor's
    /// statistics overrides, `let` parameters and cost rules).
    pub fn with_cost_rules(mut self, text: impl Into<String>) -> Self {
        self.cost_text = text.into();
        self
    }

    /// Control how much statistical information is exported.
    pub fn with_stats_export(mut self, level: StatsExport) -> Self {
        self.stats_export = level;
        self
    }

    /// Access the underlying source.
    pub fn source(&self) -> &S {
        &self.source
    }

    fn exported_stats(&self, collection: &str) -> CollectionStats {
        let full = self.source.statistics(collection);
        match (self.stats_export, full) {
            (StatsExport::Full, Some(s)) => s,
            (StatsExport::ExtentOnly, Some(s)) => CollectionStats::new(s.extent),
            _ => CollectionStats::defaults_for(),
        }
    }
}

impl<S: DataSource + Send + Sync> Wrapper for SourceWrapper<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn registration(&self) -> Result<Registration> {
        // Compile the implementor's document — this is the wrapper-side
        // semi-compilation step of §2.4.
        let doc = parse_document(&self.cost_text)?;
        let compiled: CompiledDocument = compile_document(&doc)?;

        let mut collections = Vec::new();
        for (name, schema) in self.source.collections() {
            // Document-declared interfaces override source-derived
            // statistics and schemas.
            let declared = doc.interfaces.iter().find(|i| i.name == name);
            match declared {
                Some(iface) => {
                    let (s, stats) = interface_to_catalog(iface);
                    let schema = if s.arity() > 0 { s } else { schema };
                    collections.push((name, schema, stats));
                }
                None => {
                    let stats = self.exported_stats(&name);
                    collections.push((name, schema, stats));
                }
            }
        }
        Ok(Registration {
            capabilities: self.capabilities.clone(),
            collections,
            cost_rules: compiled,
        })
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        // Unwrap a submit addressed to this wrapper.
        let plan = match plan {
            LogicalPlan::Submit { wrapper, input } => {
                if wrapper != &self.name {
                    return Err(DiscoError::Exec(format!(
                        "subquery submitted to `{wrapper}` reached wrapper `{}`",
                        self.name
                    )));
                }
                input.as_ref()
            }
            other => other,
        };
        // Capability boundary: a wrapper refuses any subquery operator
        // its declared profile does not admit, independently of what
        // the optimizer believed. This is where the pushdown-legality
        // property is ultimately enforced.
        let mut stack = vec![plan];
        while let Some(p) = stack.pop() {
            let op = p.kind();
            if !self.capabilities.supports(op) {
                return Err(DiscoError::Exec(format!(
                    "wrapper `{}` (profile `{}`) received a {op} operator its \
                     capabilities do not admit",
                    self.name,
                    CapabilityProfile::classify(&self.capabilities),
                )));
            }
            stack.extend(p.children());
        }
        self.source.execute(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, OperatorKind, PlanBuilder};
    use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};

    fn store() -> PagedStore {
        let schema = Schema::new(vec![
            AttributeDef::new("Id", DataType::Long),
            AttributeDef::new("BuildDate", DataType::Long),
        ]);
        let mut s = PagedStore::new("os", CostProfile::object_store());
        s.add_collection(
            "AtomicParts",
            CollectionBuilder::new(schema)
                .rows((0..700i64).map(|i| vec![Value::Long(i), Value::Long(i % 10)]))
                .object_size(56)
                .index("Id"),
        )
        .unwrap();
        s
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(
            QualifiedName::new("oo7", "AtomicParts"),
            Schema::new(vec![
                AttributeDef::new("Id", DataType::Long),
                AttributeDef::new("BuildDate", DataType::Long),
            ]),
        )
    }

    #[test]
    fn registration_exports_source_statistics() {
        let w = SourceWrapper::new("oo7", store());
        let reg = w.registration().unwrap();
        assert_eq!(reg.collections.len(), 1);
        let (name, schema, stats) = &reg.collections[0];
        assert_eq!(name, "AtomicParts");
        assert_eq!(schema.arity(), 2);
        assert_eq!(stats.extent.count_object, 700);
        assert!(stats.attribute("Id").indexed);
        assert_eq!(reg.rule_count(), 0);
    }

    #[test]
    fn stats_export_levels() {
        let extent_only = SourceWrapper::new("oo7", store())
            .with_stats_export(StatsExport::ExtentOnly)
            .registration()
            .unwrap();
        let (_, _, stats) = &extent_only.collections[0];
        assert_eq!(stats.extent.count_object, 700);
        assert!(stats.attributes.is_empty());

        let nothing = SourceWrapper::new("oo7", store())
            .with_stats_export(StatsExport::None)
            .registration()
            .unwrap();
        let (_, _, stats) = &nothing.collections[0];
        assert_eq!(
            stats.extent.count_object,
            disco_catalog::stats::DEFAULT_COUNT_OBJECT
        );
    }

    #[test]
    fn cost_rules_compile_and_ship() {
        let w = SourceWrapper::new("oo7", store()).with_cost_rules(
            "let IO = 25.0;
             rule scan($C) { TotalTime = 1; }
             rule select($C, $A = $V) { TotalTime = 2; }",
        );
        let reg = w.registration().unwrap();
        assert_eq!(reg.rule_count(), 2);
        assert!(reg.shipped_bytes() > 0);
        assert_eq!(reg.cost_rules.params[0].0, "IO");
    }

    #[test]
    fn bad_cost_document_fails_registration() {
        let w = SourceWrapper::new("oo7", store()).with_cost_rules("rule nonsense(");
        assert!(w.registration().is_err());
    }

    #[test]
    fn document_interfaces_override_source_stats() {
        let w = SourceWrapper::new("oo7", store()).with_cost_rules(
            "interface AtomicParts {
                attribute long Id;
                cardinality extent(70000, 3920000, 56);
            }",
        );
        let reg = w.registration().unwrap();
        let (_, _, stats) = &reg.collections[0];
        // Declared statistics win over the measured 700.
        assert_eq!(stats.extent.count_object, 70_000);
    }

    #[test]
    fn executes_submitted_subqueries() {
        let w = SourceWrapper::new("oo7", store());
        let direct = w
            .execute(&scan().select("Id", CompareOp::Lt, 10i64).build())
            .unwrap();
        assert_eq!(direct.batch.len(), 10);
        let submitted = w
            .execute(
                &scan()
                    .select("Id", CompareOp::Lt, 10i64)
                    .submit("oo7")
                    .build(),
            )
            .unwrap();
        assert_eq!(submitted.batch.len(), 10);
        // Misrouted submit is rejected.
        let wrong = w.execute(&scan().submit("elsewhere").build());
        assert!(wrong.is_err());
    }

    #[test]
    fn scan_only_wrapper_rejects_pushed_operators() {
        let w = SourceWrapper::new("oo7", store())
            .with_profile(disco_catalog::CapabilityProfile::ScanOnly);
        // Bare scans pass the boundary.
        assert!(w.execute(&scan().build()).is_ok());
        // A pushed select is refused even though the source could run it.
        let e = w
            .execute(&scan().select("Id", CompareOp::Lt, 10i64).build())
            .unwrap_err();
        assert!(e.to_string().contains("scan-only"), "{e}");
        // The profile is also what registration advertises.
        let reg = w.registration().unwrap();
        assert!(!reg.capabilities.supports(OperatorKind::Select));
    }

    #[test]
    fn capabilities_are_carried() {
        let w = SourceWrapper::new("oo7", store())
            .with_capabilities(Capabilities::of(&[OperatorKind::Select]));
        let reg = w.registration().unwrap();
        assert!(reg.capabilities.supports(OperatorKind::Select));
        assert!(!reg.capabilities.supports(OperatorKind::Join));
    }
}
