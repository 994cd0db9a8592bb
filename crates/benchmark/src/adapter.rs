//! Adapters that put spans around the runtime-facing trait calls, so the
//! tuner, a deployment or a serve engine can drive an application while
//! the benchmark times each device run, quality evaluation and input
//! generation from outside.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use paraprox_runtime::{Approximable, BatchRun, EngineDiagnostics, RunOutcome, RuntimeError};
use paraprox_vgpu::BufferInit;

use crate::trace::{self, Guard, SpanId};

/// Regenerates an application's input buffers from a seed (the type
/// `DeviceApp::new` and `drift_inputs` take).
pub type InputGen = Box<dyn FnMut(u64) -> Vec<BufferInit> + Send>;

/// Identifier shared by every span of one request: tenant and seed.
pub fn unit_key(tenant: usize, seed: u64) -> u64 {
    ((tenant as u64 + 1) << 48) | (seed & 0xFFFF_FFFF_FFFF)
}

/// Request spans the load generator has reserved, by [`unit_key`], so a
/// shard worker can parent its device spans to the request it serves.
#[derive(Default)]
pub struct Links(Mutex<HashMap<u64, SpanId>>);

impl Links {
    pub fn insert(&self, unit: u64, span: SpanId) {
        self.0.lock().expect("links poisoned").insert(unit, span);
    }

    fn get(&self, unit: u64) -> Option<SpanId> {
        self.0.lock().expect("links poisoned").get(&unit).copied()
    }

    pub fn clear(&self) {
        self.0.lock().expect("links poisoned").clear();
    }
}

/// An [`Approximable`] with a `vgpu` span around every run and a
/// `quality` span around every evaluation.
pub struct Traced<A> {
    pub inner: A,
    tenant: usize,
    links: Option<Arc<Links>>,
}

impl<A> Traced<A> {
    /// Spans nest under whatever is open on the calling thread.
    pub fn new(inner: A) -> Traced<A> {
        Traced {
            inner,
            tenant: 0,
            links: None,
        }
    }

    /// Spans are opened on a serve worker and parented, through `links`,
    /// to the request span the generator reserved for the run's seed.
    pub fn for_tenant(inner: A, tenant: usize, links: Arc<Links>) -> Traced<A> {
        Traced {
            inner,
            tenant,
            links: Some(links),
        }
    }

    fn open(&self, name: &'static str, seed: Option<u64>) -> Guard {
        if let (true, Some(links), Some(seed)) = (trace::enabled(), &self.links, seed) {
            let unit = unit_key(self.tenant, seed);
            if let Some(parent) = links.get(unit) {
                return trace::child_span("vgpu", name, parent, unit);
            }
        }
        trace::span("vgpu", name)
    }
}

impl<A: Approximable> Approximable for Traced<A> {
    fn variant_count(&self) -> usize {
        self.inner.variant_count()
    }

    fn variant_label(&self, index: usize) -> String {
        self.inner.variant_label(index)
    }

    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
        let _span = self.open("run_exact", Some(seed));
        self.inner.run_exact(seed)
    }

    fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
        let _span = self.open("run_variant", Some(seed));
        self.inner.run_variant(index, seed)
    }

    fn quality(&self, exact: &[f64], approx: &[f64]) -> f64 {
        let _span = trace::span("quality", "eval");
        self.inner.quality(exact, approx)
    }

    fn run_batch(&mut self, runs: &[BatchRun]) -> Result<Vec<RunOutcome>, RuntimeError> {
        let _span = self.open("run_batch", runs.first().map(|r| r.seed));
        self.inner.run_batch(runs)
    }

    fn engine_diagnostics(&self) -> EngineDiagnostics {
        self.inner.engine_diagnostics()
    }
}

/// An input generator with an `apps` span around every call.
pub fn traced_input_gen(mut inner: InputGen) -> InputGen {
    Box::new(move |seed| {
        let _span = trace::span("apps", "input_gen");
        inner(seed)
    })
}
